//===- tests/support/SamplerTest.cpp - Timeseries sampler tests -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pdt-timeseries-v1 sampler: counter *deltas* (not totals) per
// sample with zero deltas omitted, custom registered series, the
// stop()-takes-a-final-sample contract, and the file stream's header.
// All tests run threadless (IntervalMs=0) and drive samples manually.
//
//===----------------------------------------------------------------------===//

#include "support/Sampler.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace pdt;

namespace {

class SamplerTest : public testing::Test {
protected:
  void TearDown() override { Sampler::stop(); }
};

/// The counter the tests pulse. FlightDumps is as good as any: what
/// matters is that deltas, not totals, land in the stream.
void pulse(uint64_t N) {
  for (uint64_t I = 0; I != N; ++I)
    Metrics::count(Metric::FlightDumps);
}

std::optional<uint64_t> flightDumpDelta(const std::string &Line) {
  std::optional<json::Value> V = json::parse(Line);
  if (!V)
    return std::nullopt;
  const json::Value *Counters = V->find("counters");
  if (!Counters)
    return std::nullopt;
  return Counters->uintAt("monitor.flight.dumps");
}

TEST_F(SamplerTest, SamplesCarryDeltasNotTotals) {
  Sampler::start(/*IntervalMs=*/0);
  pulse(5);
  Sampler::sampleOnceForTest();
  pulse(3);
  Sampler::sampleOnceForTest();
  std::vector<std::string> Lines = Sampler::recentLines();
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(flightDumpDelta(Lines[0]), 5u);
  EXPECT_EQ(flightDumpDelta(Lines[1]), 3u) << "second sample must carry the "
                                              "delta, not the running total";
}

TEST_F(SamplerTest, ZeroDeltasAreOmitted) {
  Sampler::start(0);
  Sampler::sampleOnceForTest(); // Nothing pulsed since start.
  std::vector<std::string> Lines = Sampler::recentLines();
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(flightDumpDelta(Lines[0]), std::nullopt);
}

TEST_F(SamplerTest, CustomSeriesAppearUntilUnregistered) {
  std::atomic<uint64_t> Gauge{7};
  Sampler::start(0);
  size_t Id = Sampler::registerSeries(
      "test.series", [&Gauge] { return Gauge.load(); });
  Sampler::sampleOnceForTest();
  Gauge.store(11);
  Sampler::sampleOnceForTest();
  Sampler::unregisterSeries(Id);
  Sampler::sampleOnceForTest();

  std::vector<std::string> Lines = Sampler::recentLines();
  ASSERT_EQ(Lines.size(), 3u);
  auto SeriesValue = [](const std::string &Line) -> std::optional<uint64_t> {
    std::optional<json::Value> V = json::parse(Line);
    const json::Value *S = V ? V->find("series") : nullptr;
    return S ? S->uintAt("test.series") : std::nullopt;
  };
  EXPECT_EQ(SeriesValue(Lines[0]), 7u);
  EXPECT_EQ(SeriesValue(Lines[1]), 11u) << "series publish live values";
  EXPECT_EQ(SeriesValue(Lines[2]), std::nullopt) << "unregistered: gone";
}

TEST_F(SamplerTest, StopTakesOneFinalSample) {
  Sampler::start(0);
  Sampler::Summary Before = Sampler::summary();
  EXPECT_EQ(Before.Samples, 0u);
  Sampler::stop();
  EXPECT_EQ(Sampler::summary().Samples, 1u)
      << "stop() must flush a final sample so short runs have data";
}

TEST_F(SamplerTest, FileStreamHasSchemaHeaderAndParseableSamples) {
  const char *Path = "sampler_test.jsonl";
  std::remove(Path);
  ASSERT_TRUE(Sampler::start(0, Path));
  pulse(2);
  Sampler::sampleOnceForTest();
  Sampler::stop(); // Final sample + close.

  std::ifstream File(Path);
  ASSERT_TRUE(File.good());
  std::string Line;
  ASSERT_TRUE(std::getline(File, Line));
  std::optional<json::Value> Header = json::parse(Line);
  ASSERT_TRUE(Header.has_value());
  EXPECT_EQ(Header->stringAt("schema"), "pdt-timeseries-v1");
  EXPECT_EQ(Header->uintAt("interval_ms"), 0u);
  ASSERT_NE(Header->find("build"), nullptr)
      << "timeseries header must stamp build info";
  unsigned Samples = 0;
  while (std::getline(File, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << "unparseable sample: " << Line;
    EXPECT_TRUE(V->uintAt("t_ms").has_value());
    ++Samples;
  }
  EXPECT_EQ(Samples, 2u);
  std::remove(Path);
}

TEST_F(SamplerTest, SummaryTracksTheConfiguredInterval) {
  Sampler::start(125);
  EXPECT_EQ(Sampler::summary().IntervalMs, 125u);
  Sampler::stop();
}

} // namespace
