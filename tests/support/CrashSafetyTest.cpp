//===- tests/support/CrashSafetyTest.cpp - Crash-flush registry tests -----===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The telemetry dumps are exactly the artifacts one needs when a run
// dies, so the crash-flush registry is verified on the real death
// paths: registered hooks run (once) on abort and on terminate, and
// the env-armed sinks (PDT_TRACE, PDT_METRICS, PDT_REPORT) leave a
// parseable file behind after an abort — including with fault
// injection armed, the configuration where crashes are provoked on
// purpose.
//
// The death tests use the "threadsafe" style: the child re-executes
// the test binary, so its static initializers see the PDT_* variables
// set by the parent and arm the real env wiring end to end.
//
//===----------------------------------------------------------------------===//

#include "support/CrashSafety.h"

#include "driver/Analyzer.h"
#include "driver/RunReport.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

using namespace pdt;

namespace {

int FirstHookRuns = 0;
int SecondHookRuns = 0;
void firstHook() { ++FirstHookRuns; }
void secondHook() { ++SecondHookRuns; }

std::string slurp(const char *Path) {
  std::ifstream File(Path);
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

} // namespace

TEST(CrashSafety, HooksRunAtMostOncePerProcess) {
  registerCrashFlush("TEST_FIRST", firstHook);
  registerCrashFlush("TEST_FIRST", firstHook); // duplicate: ignored
  registerCrashFlush("TEST_SECOND", secondHook);
  runCrashFlushHooks();
  EXPECT_EQ(FirstHookRuns, 1);
  EXPECT_EQ(SecondHookRuns, 1);
  runCrashFlushHooks(); // idempotent: every hook already ran
  EXPECT_EQ(FirstHookRuns, 1);
  EXPECT_EQ(SecondHookRuns, 1);
}

TEST(CrashSafetyDeath, AbortRunsRegisteredHooks) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Sentinel = "crash_sentinel_abort.txt";
  std::remove(Sentinel);
  registerCrashFlush("TEST_ABORT", [] {
    std::ofstream("crash_sentinel_abort.txt") << "flushed";
  });
  EXPECT_DEATH(std::abort(), "crash-flushing TEST_ABORT");
  EXPECT_EQ(slurp(Sentinel), "flushed");
  std::remove(Sentinel);
}

TEST(CrashSafetyDeath, TerminateRunsRegisteredHooks) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  registerCrashFlush("TEST_TERMINATE", [] {});
  EXPECT_DEATH(std::terminate(), "crash-flushing TEST_TERMINATE");
}

TEST(CrashSafetyDeath, AbortFlushesEnvArmedTrace) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Path = "crash_trace_dump.json";
  std::remove(Path);
  setenv("PDT_TRACE", Path, 1);
  EXPECT_DEATH(
      {
        { Span S("CrashSafetyTest::span", "test"); }
        std::abort();
      },
      "crash-flushing PDT_TRACE");
  unsetenv("PDT_TRACE");
  std::string Dump = slurp(Path);
  EXPECT_NE(Dump.find("CrashSafetyTest::span"), std::string::npos)
      << "trace dump missing the span recorded before the abort";
  std::remove(Path);
}

TEST(CrashSafetyDeath, AbortFlushesEnvArmedMetrics) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Path = "crash_metrics_dump.json";
  std::remove(Path);
  setenv("PDT_METRICS", Path, 1);
  EXPECT_DEATH(
      {
        Metrics::count(Metric::PairsTested, 42);
        std::abort();
      },
      "crash-flushing PDT_METRICS");
  unsetenv("PDT_METRICS");
  std::string Error;
  std::optional<json::Value> V = json::parse(slurp(Path), &Error);
  ASSERT_TRUE(V) << "metrics dump is not valid JSON: " << Error;
  const json::Value *Counters = V->find("counters");
  ASSERT_TRUE(Counters);
  EXPECT_EQ(Counters->uintAt("graph.pairs.tested").value_or(0), 42u);
  std::remove(Path);
}

TEST(CrashSafetyDeath, AbortFlushesReportUnderFaultInjection) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Path = "crash_report_dump.json";
  std::remove(Path);
  // Fault injection armed: the analysis degrades (contained) and the
  // process then dies; the report must still land on disk with the
  // degradation visible in it.
  setenv("PDT_REPORT", Path, 1);
  // Site numbers are process-global checkpoint ordinals: on this
  // kernel the first three land in access lowering (degraded without
  // a per-pair stats row); site 4 is the first one inside the pair
  // tester, where degradation is counted into TestStats.
  setenv("PDT_FAULT_INJECT", "internal@4", 1);
  EXPECT_DEATH(
      {
        AnalyzerOptions Opt;
        Opt.NumThreads = 1;
        AnalysisResult R = analyzeSource("do i = 1, 8\n"
                                         "  a(i) = a(i-1)\n"
                                         "end do\n",
                                         "crash-workload", Opt);
        if (R.Parsed)
          RunReport::noteStats(R.Stats);
        std::abort();
      },
      "crash-flushing PDT_REPORT");
  unsetenv("PDT_REPORT");
  unsetenv("PDT_FAULT_INJECT");
  std::string Error;
  std::optional<json::Value> V = json::parse(slurp(Path), &Error);
  ASSERT_TRUE(V) << "report dump is not valid JSON: " << Error;
  EXPECT_EQ(V->stringAt("schema").value_or(""), "pdt-report-v1");
  const json::Value *Stats = V->find("stats");
  ASSERT_TRUE(Stats);
  EXPECT_GE(Stats->uintAt("degraded_results").value_or(0), 1u)
      << "injected fault did not surface in the crash-flushed report";
  std::remove(Path);
}
