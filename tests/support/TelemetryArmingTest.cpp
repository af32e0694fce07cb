//===- tests/support/TelemetryArmingTest.cpp - PDT_* sinks armed by env ---===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The env-armed sinks end to end. The death tests use the "threadsafe"
// style: the child re-executes this binary, so the PDT_* variables set
// here reach its static initialization and arm the real wiring; the
// child checks what was armed and exits, and the parent reads the files
// it left. File names carry the parent's pid because the child re-runs
// the test body and must not unlink what its own arming opened.
//
// The quickstart test runs an example that references neither Profile
// nor Sampler, so its sinks arm only when the arming point sits in an
// object every instrumented binary links.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Sampler.h"
#include "support/Trace.h"
#include "support/Watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pdt;

namespace {

std::string pidPath(const char *Stem, const char *Extension) {
  return std::string(Stem) + "." + std::to_string(getpid()) + Extension;
}

std::string slurp(const std::string &Path) {
  std::ifstream File(Path);
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

/// Every line of a JSONL file, header included, parsed.
std::vector<json::Value> jsonlLines(const std::string &Path) {
  std::ifstream File(Path);
  EXPECT_TRUE(File.is_open()) << "missing " << Path;
  std::vector<json::Value> Out;
  std::string Line;
  while (std::getline(File, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    EXPECT_TRUE(V.has_value()) << "malformed JSONL line: " << Line;
    if (V)
      Out.push_back(std::move(*V));
  }
  return Out;
}

/// Requires a pdt-timeseries-v1 header with \p IntervalMs followed by
/// at least one sample line; returns the samples.
std::vector<json::Value> expectTimeSeries(const std::string &Path,
                                          uint64_t IntervalMs) {
  std::vector<json::Value> Lines = jsonlLines(Path);
  EXPECT_GE(Lines.size(), 2u) << Path << " holds no sample past the header";
  if (Lines.empty())
    return {};
  EXPECT_EQ(Lines[0].stringAt("schema").value_or(""), "pdt-timeseries-v1");
  EXPECT_EQ(Lines[0].uintAt("interval_ms").value_or(0), IntervalMs);
  EXPECT_NE(Lines[0].find("build"), nullptr);
  std::vector<json::Value> Samples(Lines.begin() + 1, Lines.end());
  for (const json::Value &S : Samples) {
    EXPECT_TRUE(S.uintAt("t_ms").has_value());
    EXPECT_NE(S.find("counters"), nullptr);
  }
  return Samples;
}

} // namespace

TEST(EnvArmingDeath, WatchdogArmsWithTheSpecsFactorAndQuietInterval) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Factor 1 over a 20 ms quiet interval: a stage silent for 100 ms has
  // stalled. The default (4 x 1000 ms) would call it healthy.
  setenv("PDT_WATCHDOG", "on,1,20", 1);
  EXPECT_EXIT(
      {
        bool Armed = Watchdog::enabled();
        Heartbeat Beat("TelemetryArmingTest::silent");
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        Watchdog::pollOnceForTest();
        std::exit(Armed && Watchdog::stallCount() >= 1 ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
  unsetenv("PDT_WATCHDOG");
}

TEST(EnvArmingDeath, SamplerWritesHeaderAndFinalSampleAtExit) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string Path = pidPath("env_sampler", ".jsonl");
  std::remove(Path.c_str());
  // An hour-long interval: the only sample is the one taken at exit.
  setenv("PDT_SAMPLE_MS", "3600000", 1);
  setenv("PDT_SAMPLE", Path.c_str(), 1);
  EXPECT_EXIT(
      {
        Metrics::count(Metric::PairsTested, 7);
        std::exit(Sampler::enabled() ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
  unsetenv("PDT_SAMPLE_MS");
  unsetenv("PDT_SAMPLE");

  std::vector<json::Value> Samples = expectTimeSeries(Path, 3600000);
  ASSERT_EQ(Samples.size(), 1u);
  const json::Value *Counters = Samples[0].find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->uintAt("graph.pairs.tested").value_or(0), 7u);
  std::remove(Path.c_str());
}

TEST(EnvArmingDeath, TraceMaxSpansCapsTheEnvArmedTrace) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string Path = pidPath("env_trace_cap", ".json");
  std::remove(Path.c_str());
  setenv("PDT_TRACE_MAX_SPANS", "1024", 1);
  setenv("PDT_TRACE", Path.c_str(), 1);
  EXPECT_EXIT(
      {
        for (int I = 0; I != 1100; ++I) {
          Span S("TelemetryArmingTest::span", "test");
        }
        std::exit(Trace::maxSpansPerThread() == 1024 &&
                          Trace::droppedSpans() == 76
                      ? 0
                      : 1);
      },
      testing::ExitedWithCode(0), "");
  unsetenv("PDT_TRACE_MAX_SPANS");
  unsetenv("PDT_TRACE");

  std::string Error;
  std::optional<json::Value> Dump = json::parse(slurp(Path), &Error);
  ASSERT_TRUE(Dump.has_value()) << "trace is not valid JSON: " << Error;
  const json::Value *Events = Dump->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  size_t Kept = 0;
  for (const json::Value &E : Events->asArray())
    Kept += E.stringAt("name") == "TelemetryArmingTest::span";
  EXPECT_EQ(Kept, 1024u);
  std::remove(Path.c_str());
}

TEST(EnvArming, QuickstartWritesProfileAndTimeSeries) {
  std::string ProfilePath = pidPath("quickstart_profile", ".json");
  std::string SeriesPath = pidPath("quickstart_series", ".jsonl");
  std::remove(ProfilePath.c_str());
  std::remove(SeriesPath.c_str());
  std::string Command = "PDT_PROFILE='" + ProfilePath + "' PDT_SAMPLE='" +
                        SeriesPath + "' '" PDT_QUICKSTART "' > /dev/null";
  ASSERT_EQ(std::system(Command.c_str()), 0) << Command;

  std::string Error;
  std::optional<json::Value> Profile = json::parse(slurp(ProfilePath), &Error);
  ASSERT_TRUE(Profile.has_value())
      << ProfilePath << " is missing or not JSON: " << Error;
  EXPECT_EQ(Profile->stringAt("schema").value_or(""), "pdt-profile-v1");
  EXPECT_GT(Profile->uintAt("events").value_or(0), 0u);

  uint64_t Builds = 0;
  for (const json::Value &Sample :
       expectTimeSeries(SeriesPath, Sampler::DefaultIntervalMs))
    if (const json::Value *Counters = Sample.find("counters"))
      Builds += Counters->uintAt("graph.builds").value_or(0);
  EXPECT_GE(Builds, 1u) << "the samples missed quickstart's graph build";
  std::remove(ProfilePath.c_str());
  std::remove(SeriesPath.c_str());
}
