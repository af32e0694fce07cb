//===- tests/driver/RunReportTest.cpp - Run-report schema tests -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The consolidated run report's contract: render() produces valid
// pdt-report-v1 JSON that round-trips byte-stably through the parser,
// the "stats" section is byte-identical for the same workload at any
// thread count (the property the self-diff gate in ctest rests on),
// and a genuinely different run is caught by the differ.
//
//===----------------------------------------------------------------------===//

#include "driver/RunReport.h"

#include "driver/Analyzer.h"
#include "driver/ReportDiff.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace pdt;

namespace {

TestStats fixedStats() {
  TestStats S;
  S.ReferencePairs = 100;
  S.IndependentPairs = 40;
  S.DimensionHistogram = {50, 30, 15, 5};
  S.SeparableSubscripts = 80;
  S.CoupledSubscripts = 20;
  S.ZIVSubscripts = 10;
  S.SIVSubscripts = 70;
  S.MIVSubscripts = 20;
  S.CoupledGroups = 7;
  S.noteApplication(TestKind::StrongSIV);
  S.noteApplication(TestKind::StrongSIV);
  S.noteIndependence(TestKind::StrongSIV);
  S.noteApplication(TestKind::GCD);
  S.noteDegraded(FailureKind::Overflow);
  return S;
}

/// Renders a report for \p Stats with a fixed tool/workload identity.
std::string renderWith(const TestStats &Stats) {
  RunReport::reset();
  RunReport::noteTool("pdt_tests");
  RunReport::noteWorkload("case", "run-report-test");
  RunReport::noteStats(Stats);
  RunReport::noteWallNs(123456789);
  std::string Out = RunReport::render();
  RunReport::reset();
  return Out;
}

const char *WorkloadSource = "do i = 1, 30\n"
                             "  do j = 1, 30\n"
                             "    a(i+1, j) = a(i, j+1)\n"
                             "    b(2*i) = b(2*i+1) + a(i, j)\n"
                             "  end do\n"
                             "end do\n";

/// One full instrumented analysis at \p Threads workers; returns the
/// rendered report.
std::string analyzedReport(unsigned Threads) {
  Metrics::enable("");
  AnalyzerOptions Opt;
  Opt.NumThreads = Threads;
  AnalysisResult R = analyzeSource(WorkloadSource, "report-workload", Opt);
  EXPECT_TRUE(R.Parsed);
  RunReport::reset();
  RunReport::noteTool("pdt_tests");
  RunReport::noteWorkload("threads", static_cast<uint64_t>(Threads));
  RunReport::noteStats(R.Stats);
  std::string Out = RunReport::render();
  Metrics::stop();
  RunReport::reset();
  return Out;
}

/// The compact serialization of one top-level section, "" if absent.
std::string section(const std::string &Report, const char *Name) {
  std::optional<json::Value> V = json::parse(Report);
  if (!V)
    return "";
  const json::Value *S = V->find(Name);
  return S ? json::dump(*S) : "";
}

} // namespace

TEST(RunReport, RenderIsValidSchemaTaggedJson) {
  std::string Report = renderWith(fixedStats());
  std::string Error;
  std::optional<json::Value> V = json::parse(Report, &Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->stringAt("schema").value_or(""), "pdt-report-v1");
  const json::Value *Meta = V->find("meta");
  ASSERT_TRUE(Meta);
  EXPECT_EQ(Meta->stringAt("tool").value_or(""), "pdt_tests");
  const json::Value *Timing = V->find("timing");
  ASSERT_TRUE(Timing);
  EXPECT_EQ(Timing->uintAt("wall_ns").value_or(0), 123456789u);
}

TEST(RunReport, StatsSectionCarriesEveryRow) {
  std::string Report = renderWith(fixedStats());
  std::optional<json::Value> V = json::parse(Report);
  ASSERT_TRUE(V);
  const json::Value *Stats = V->find("stats");
  ASSERT_TRUE(Stats);
  EXPECT_EQ(Stats->uintAt("reference_pairs").value_or(0), 100u);
  EXPECT_EQ(Stats->uintAt("degraded_results").value_or(0), 1u);
  // Every TestKind row is present even when zero, so diffs never see
  // keys appear or vanish between runs.
  const json::Value *Tests = Stats->find("tests");
  ASSERT_TRUE(Tests && Tests->isObject());
  EXPECT_EQ(Tests->asObject().size(), static_cast<size_t>(NumTestKinds));
  const json::Value *Degraded = Stats->find("degraded_by_kind");
  ASSERT_TRUE(Degraded && Degraded->isObject());
  EXPECT_EQ(Degraded->asObject().size(), static_cast<size_t>(NumFailureKinds));
  const json::Value *Strong = Tests->find(testKindName(TestKind::StrongSIV));
  ASSERT_TRUE(Strong);
  EXPECT_EQ(Strong->uintAt("applications").value_or(0), 2u);
  EXPECT_EQ(Strong->uintAt("independences").value_or(0), 1u);
}

TEST(RunReport, RoundTripsByteStablyThroughTheParser) {
  std::string Report = renderWith(fixedStats());
  std::optional<json::Value> Once = json::parse(Report);
  ASSERT_TRUE(Once);
  std::string Dumped = json::dump(*Once);
  std::optional<json::Value> Twice = json::parse(Dumped);
  ASSERT_TRUE(Twice);
  EXPECT_EQ(json::dump(*Twice), Dumped);
}

TEST(RunReport, WorkloadKeysOverwriteAndRenderSorted) {
  RunReport::reset();
  RunReport::noteTool("pdt_tests");
  RunReport::noteWorkload("zeta", "first");
  RunReport::noteWorkload("alpha", "1");
  RunReport::noteWorkload("zeta", "second"); // duplicate key: last wins
  std::string Report = RunReport::render();
  RunReport::reset();
  std::optional<json::Value> V = json::parse(Report);
  ASSERT_TRUE(V);
  const json::Value *W = V->find("workload");
  ASSERT_TRUE(W && W->isObject());
  ASSERT_EQ(W->asObject().size(), 2u);
  EXPECT_EQ(W->asObject()[0].first, "alpha");
  EXPECT_EQ(W->asObject()[1].first, "zeta");
  EXPECT_EQ(W->stringAt("zeta").value_or(""), "second");
}

TEST(RunReport, StatsAreByteIdenticalAcrossThreadCounts) {
  std::string At1 = analyzedReport(1);
  std::string At4 = analyzedReport(4);
  std::string At8 = analyzedReport(8);
  std::string Stats1 = section(At1, "stats");
  ASSERT_FALSE(Stats1.empty());
  EXPECT_EQ(Stats1, section(At4, "stats"));
  EXPECT_EQ(Stats1, section(At8, "stats"));
}

TEST(RunReport, SelfDiffAcrossThreadCountsHasNoRegressions) {
  std::optional<json::Value> At1 = json::parse(analyzedReport(1));
  std::optional<json::Value> At4 = json::parse(analyzedReport(4));
  std::optional<json::Value> At8 = json::parse(analyzedReport(8));
  ASSERT_TRUE(At1 && At4 && At8);
  // Scheduling-dependent splits and wall-clock values may move; under
  // the default options none of that is a regression.
  EXPECT_EQ(diffReports(*At1, *At4).Regressions, 0u);
  EXPECT_EQ(diffReports(*At1, *At8).Regressions, 0u);
  EXPECT_EQ(diffReports(*At4, *At8).Regressions, 0u);
}

TEST(RunReport, PlantedStatChangeIsCaughtByTheDiffer) {
  TestStats Before = fixedStats();
  TestStats After = fixedStats();
  After.ReferencePairs += 1; // the plant
  std::optional<json::Value> B = json::parse(renderWith(Before));
  std::optional<json::Value> A = json::parse(renderWith(After));
  ASSERT_TRUE(B && A);
  DiffResult R = diffReports(*B, *A);
  EXPECT_GE(R.Regressions, 1u);
  bool Found = false;
  for (const DiffEntry &E : R.Changed)
    if (E.Key == "stats.reference_pairs") {
      Found = true;
      EXPECT_TRUE(E.Regression);
      EXPECT_EQ(E.Class, KeyClass::Stat);
    }
  EXPECT_TRUE(Found);
}
