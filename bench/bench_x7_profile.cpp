//===- bench/bench_x7_profile.cpp ------------------------------------------===//
//
// Experiment X7: attribution-profile fidelity and the self-regression
// gate. The observability stack claims that span attribution accounts
// for where analysis time goes; this bench holds it to that claim on
// the X3 workload and then turns the run-report machinery on itself:
//
//   1. Reconciliation — with tracing armed, the profile's attributed
//      time (sum of root-span inclusive time == sum of all span self
//      time, an exact invariant) must agree with the wall clock
//      around the serial graph build within 5% (25% under --smoke,
//      where the workload is sub-millisecond and fixed costs bite).
//
//   2. Partition invariants — per-kind self time (and per-layer self
//      time) must partition the attributed total exactly; the
//      tagged dependence-test kinds must actually appear.
//
//   3. Self-regression gate — two identical runs produce two
//      AnalysisReports (BENCH_profile_run1.json / _run2.json); the
//      report differ must find zero regressions between them under
//      the default (wall-clock-excluded) tolerances, and the "stats"
//      section must be byte-for-byte identical. The depprof binary
//      replays the same diff from ctest (depprof_selfdiff).
//
// In the full (non-smoke) run the result is also appended to the
// BENCH_HISTORY.jsonl perf ledger and scanned against prior entries.
// Writes BENCH_profile.json (and the two run reports) under
// PDT_BENCH_DIR when set.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "core/DependenceGraph.h"
#include "core/DependenceTypes.h"
#include "driver/Analyzer.h"
#include "driver/ReportDiff.h"
#include "driver/RunReport.h"
#include "driver/WorkloadGenerator.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <string>

using namespace pdt;

namespace {

const char *kindTagName(int Tag) {
  if (Tag < 0 || Tag >= static_cast<int>(NumTestKinds))
    return nullptr;
  return testKindName(static_cast<TestKind>(Tag));
}

struct RunResult {
  int64_t WallNs = 0;
  Profile Prof;
  std::string Report;
  uint64_t Edges = 0;
};

/// One fully instrumented serial build over \p Prog: arm metrics and
/// tracing, build, render the consolidated report. Both runs execute
/// exactly this.
RunResult instrumentedRun(const Program &Prog, const SymbolRangeMap &Symbols,
                          unsigned NumNests) {
  RunResult R;
  Metrics::enable();
  Trace::start("");

  TestStats Stats;
  auto T0 = std::chrono::steady_clock::now();
  DependenceGraph G = DependenceGraph::build(Prog, Symbols, &Stats,
                                             /*IncludeInputDeps=*/false,
                                             /*NumThreads=*/1);
  R.WallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  R.Edges = G.dependences().size();

  // Disarm without writing (paths are empty); the buffered events and
  // shards stay readable for the profile and the report.
  Trace::stop();
  Metrics::stop();

  R.Prof = Profile::fromTrace(kindTagName);
  RunReport::reset();
  RunReport::noteTool("bench_x7_profile");
  RunReport::noteWorkload("workload", "x3");
  RunReport::noteWorkload("nests", static_cast<uint64_t>(NumNests));
  RunReport::noteWorkload("seed", "0xBADC0FFEE");
  RunReport::noteStats(Stats);
  RunReport::noteWallNs(R.WallNs);
  R.Report = RunReport::render();
  return R;
}

bool writeArtifact(const std::string &Path, const std::string &Contents) {
  std::ofstream File(Path);
  File << Contents;
  return File.good();
}

int64_t selfOf(const std::vector<ProfileEntry> &Rows) {
  int64_t Sum = 0;
  for (const ProfileEntry &E : Rows)
    Sum += E.SelfNs;
  return Sum;
}

bool hasKey(const std::vector<ProfileEntry> &Rows, const char *Key) {
  for (const ProfileEntry &E : Rows)
    if (E.Key == Key)
      return true;
  return false;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  unsigned NumNests = 64;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--nests") && I + 1 != argc)
      NumNests = std::strtoul(argv[++I], nullptr, 10);
    else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--nests N]\n";
      return 2;
    }
  }
  if (Smoke)
    NumNests = 4;
  double ReconcileTol = Smoke ? 0.25 : 0.05;

  // The X3 workload, verbatim: same generator, same seed.
  std::mt19937_64 Rng(0xBADC0FFEE);
  std::string Source = generateRandomProgramSource(Rng, NumNests,
                                                   /*MaxDepth=*/3,
                                                   /*StmtsPerNest=*/3);
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x7-workload", Opt);
  if (!Base.Parsed) {
    std::cerr << "workload failed to parse\n";
    return 1;
  }
  const Program &Prog = *Base.Prog;
  SymbolRangeMap Symbols;
  Symbols.try_emplace("n", Interval(1, std::nullopt));

  RunResult Run1 = instrumentedRun(Prog, Symbols, NumNests);
  RunResult Run2 = instrumentedRun(Prog, Symbols, NumNests);

  // --- 1. Reconciliation against the wall clock -----------------------
  const Profile &P = Run1.Prof;
  double Reconcile =
      Run1.WallNs
          ? std::fabs(static_cast<double>(P.RootInclusiveNs - Run1.WallNs)) /
                static_cast<double>(Run1.WallNs)
          : 1.0;
  std::printf("x7 profile: %llu spans over %llu edges\n",
              static_cast<unsigned long long>(P.NumEvents),
              static_cast<unsigned long long>(Run1.Edges));
  std::printf("  wall %"
              ".3f ms, attributed %.3f ms (|delta| %.2f%%, tolerance %.0f%%)\n",
              Run1.WallNs / 1e6, P.RootInclusiveNs / 1e6, Reconcile * 100,
              ReconcileTol * 100);
  if (P.NumEvents == 0) {
    std::cerr << "FAIL: no spans recorded with tracing armed\n";
    return 1;
  }
  if (Reconcile > ReconcileTol) {
    std::cerr << "FAIL: attributed time diverges from wall clock beyond "
                 "tolerance\n";
    return 1;
  }

  // --- 2. Exact partition invariants ----------------------------------
  if (P.TotalSelfNs != P.RootInclusiveNs) {
    std::cerr << "FAIL: total self " << P.TotalSelfNs
              << " != root inclusive " << P.RootInclusiveNs << "\n";
    return 1;
  }
  if (selfOf(P.ByKind) != P.TotalSelfNs || selfOf(P.ByLayer) != P.TotalSelfNs) {
    std::cerr << "FAIL: per-kind/per-layer self time does not partition the "
                 "total\n";
    return 1;
  }
  if (!hasKey(P.ByLayer, "graph") || !hasKey(P.ByLayer, "siv")) {
    std::cerr << "FAIL: expected layers missing from the profile\n";
    return 1;
  }
  unsigned TaggedKinds = 0;
  for (const ProfileEntry &E : P.ByKind)
    TaggedKinds += E.Key != "other";
  if (TaggedKinds == 0) {
    std::cerr << "FAIL: no TestKind-tagged spans in the profile\n";
    return 1;
  }
  std::printf("  partition exact: %zu kinds (%u tagged), %zu layers, "
              "%zu sites\n",
              P.ByKind.size(), TaggedKinds, P.ByLayer.size(),
              P.BySite.size());

  // --- 3. Self-regression gate ----------------------------------------
  std::string Run1Path = benchOutputPath("BENCH_profile_run1.json");
  std::string Run2Path = benchOutputPath("BENCH_profile_run2.json");
  if (!writeArtifact(Run1Path, Run1.Report) ||
      !writeArtifact(Run2Path, Run2.Report)) {
    std::cerr << "FAIL: cannot write run reports\n";
    return 1;
  }
  std::string Error;
  std::optional<json::Value> R1 = json::parse(Run1.Report, &Error);
  std::optional<json::Value> R2 = json::parse(Run2.Report, &Error);
  if (!R1 || !R2) {
    std::cerr << "FAIL: report does not parse as JSON: " << Error << "\n";
    return 1;
  }
  DiffResult Diff = diffReports(*R1, *R2); // Default: wall clock excluded.
  for (const DiffEntry &E : Diff.Changed)
    if (E.Regression)
      std::cerr << "REGRESSION " << E.Key << ": " << E.Before << " -> "
                << E.After << "\n";
  if (Diff.Regressions) {
    std::cerr << "FAIL: " << Diff.Regressions
              << " regression(s) between identical runs\n";
    return 1;
  }
  for (const DiffEntry &E : Diff.Changed)
    if (classifyKey(E.Key) == KeyClass::Stat) {
      std::cerr << "FAIL: stats key changed between identical runs: " << E.Key
                << "\n";
      return 1;
    }
  std::printf("  self-diff: %zu wall-clock keys moved, 0 regressions\n",
              Diff.Changed.size());

  // --- Artifacts -------------------------------------------------------
  std::ofstream Json(benchOutputPath("BENCH_profile.json"));
  Json << "{\n"
       << benchMetaJson("x7_profile") << ",\n"
       << "  \"workload\": {\"nests\": " << NumNests
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"wall_ns\": " << Run1.WallNs << ",\n"
       << "  \"attributed_ns\": " << P.RootInclusiveNs << ",\n"
       << "  \"reconcile_error\": " << Reconcile << ",\n"
       << "  \"reconcile_tolerance\": " << ReconcileTol << ",\n"
       << "  \"spans\": " << P.NumEvents << ",\n"
       << "  \"tagged_kinds\": " << TaggedKinds << ",\n"
       << "  \"self_diff_changed\": " << Diff.Changed.size() << ",\n"
       << "  \"self_diff_regressions\": " << Diff.Regressions << ",\n"
       << "  \"partition_exact\": true\n"
       << "}\n";

  // --- Perf ledger (full runs only: smoke timings are all noise) ------
  if (!Smoke) {
    std::string LedgerPath = benchOutputPath("BENCH_HISTORY.jsonl");
    std::string Timestamp = "unknown";
    if (const json::Value *Meta = R1->find("meta"))
      Timestamp = Meta->stringAt("timestamp").value_or("unknown");
    HistoryLine Line = historyLineFromReport(
        "bench_x7_profile", PDT_BENCH_BUILD_TYPE, Timestamp, *R1);
    if (!appendHistoryLine(LedgerPath, Line)) {
      std::cerr << "FAIL: cannot append to " << LedgerPath << "\n";
      return 1;
    }
    HistoryLoad Load = loadHistory(LedgerPath);
    HistoryScan Scan =
        scanHistory(Load.Lines, "bench_x7_profile", PDT_BENCH_BUILD_TYPE);
    for (const HistoryFlag &F : Scan.Flags)
      std::printf("  HISTORY REGRESSION %s: %.6g vs median %.6g (band "
                  "%.6g)\n",
                  F.Key.c_str(), F.Latest, F.Median, F.Band);
    std::printf("  ledger: %zu line(s), %u comparable, %zu flagged\n",
                Load.Lines.size(), Scan.Considered, Scan.Flags.size());
  }
  return 0;
}
