//===- bench/bench_x3_graph_throughput.cpp ------------------------------------===//
//
// Experiment X3: dependence-graph construction throughput. The paper's
// pitch is that partition-based testing is cheap enough to run on
// every reference pair in a program; this bench quantifies how many
// pairs per second the graph builder sustains on a large synthetic
// program, and what the bucketed + cached + multithreaded pipeline
// buys over the seed implementation (which re-lowered both references
// of every pair from scratch inside a serial O(n^2) loop).
//
// Three configurations are measured over the identical program:
//
//   * seed:      the original per-pair path (prepareAccessPair inside
//                the pair loop, no bucketing), reconstructed here;
//   * serial:    the new pipeline at 1 thread (cache + buckets only);
//   * parallel:  the new pipeline at --threads workers (default 4).
//
// The bench hard-asserts that all three produce identical graphs and
// equal TestStats, then writes BENCH_graph_throughput.json. Run with
// --smoke for a sub-second workload (wired as the bench_smoke ctest).
//
// --ablation instead measures the batched SoA fast path against the
// scalar testers (core/PairBatch.h) on a ZIV/strong-SIV-heavy
// workload: both configurations run at the same thread count, must
// produce byte-identical edges and equal TestStats, and each emits a
// full pdt-report-v1 document (BENCH_x3_ablation_{scalar,batched}.json)
// so depprof can diff them and append the batched run to the
// BENCH_HISTORY.jsonl perf ledger. The non-smoke run gates on the
// batched configuration sustaining >= 1.5x pairs/sec.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "driver/RunReport.h"
#include "core/AccessLoweringCache.h"
#include "core/DependenceGraph.h"
#include "core/DependenceTester.h"
#include "core/PairBatch.h"
#include "driver/Analyzer.h"
#include "driver/WorkloadGenerator.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

using namespace pdt;

namespace {

/// One dependence edge rendered without graph identity, so edge lists
/// from different builders can be compared byte for byte.
std::string renderEdges(const std::vector<Dependence> &Edges) {
  std::string Out;
  for (const Dependence &D : Edges) {
    Out += dependenceKindName(D.Kind);
    Out += ' ';
    Out += std::to_string(D.Source);
    Out += "->";
    Out += std::to_string(D.Sink);
    Out += ' ';
    Out += D.Vector.str();
    Out += D.Carrier ? " @" + D.Carrier->getIndexName() : " indep";
    Out += D.Exact ? " exact" : " assumed";
    Out += '\n';
  }
  return Out;
}

/// The seed implementation of DependenceGraph::build, kept verbatim as
/// the baseline: serial all-pairs loop, full per-pair lowering through
/// testAccessPair, no bucketing and no cache.
std::vector<Dependence> buildSeedEdges(const Program &P,
                                       const SymbolRangeMap &Symbols,
                                       TestStats *Stats) {
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> VaryingScalars = collectVaryingScalars(P);
  std::vector<Dependence> Edges;

  for (unsigned I = 0, E = Accesses.size(); I != E; ++I) {
    for (unsigned J = I, E2 = E; J != E2; ++J) {
      const ArrayAccess &A = Accesses[I];
      const ArrayAccess &B = Accesses[J];
      bool SelfPair = I == J;
      if (SelfPair && !A.IsWrite)
        continue;
      if (A.Ref->getArrayName() != B.Ref->getArrayName())
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;

      DependenceTestResult R =
          testAccessPair(A, B, Symbols, Stats, &VaryingScalars);
      if (R.isIndependent())
        continue;

      std::vector<const DoLoop *> Common = commonLoops(A, B);
      for (const DependenceVector &V : R.Vectors) {
        for (const OrientedVector &O : orientVectors(V)) {
          Dependence D;
          D.Source = O.Reversed ? J : I;
          D.Sink = O.Reversed ? I : J;
          if (!O.CarriedLevel && O.Reversed)
            continue;
          if (SelfPair && (!O.CarriedLevel || O.Reversed))
            continue;
          D.Vector = O.Vector;
          D.CarriedLevel = O.CarriedLevel;
          D.Carrier = O.CarriedLevel ? Common[*O.CarriedLevel] : nullptr;
          D.Exact = R.Exact;
          const ArrayAccess &Src = Accesses[D.Source];
          const ArrayAccess &Snk = Accesses[D.Sink];
          if (Src.IsWrite && Snk.IsWrite)
            D.Kind = DependenceKind::Output;
          else if (Src.IsWrite)
            D.Kind = DependenceKind::Flow;
          else if (Snk.IsWrite)
            D.Kind = DependenceKind::Anti;
          else
            D.Kind = DependenceKind::Input;
          Edges.push_back(std::move(D));
        }
      }
    }
  }
  return Edges;
}

double seconds(std::chrono::steady_clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

struct Measurement {
  double Secs = 0;
  std::string EdgeReport;
  TestStats Stats;
};

template <typename Fn> Measurement timeBest(unsigned Reps, Fn &&Run) {
  Measurement Best;
  for (unsigned R = 0; R != Reps; ++R) {
    Measurement M;
    auto Start = std::chrono::steady_clock::now();
    auto [Edges, Stats] = Run();
    M.Secs = seconds(std::chrono::steady_clock::now() - Start);
    M.EdgeReport = renderEdges(Edges);
    M.Stats = Stats;
    if (Best.EdgeReport.empty() || M.Secs < Best.Secs)
      Best = std::move(M);
  }
  return Best;
}

/// The batched-vs-scalar ablation: identical workload, identical
/// thread count, only the PairBatch mode override differs.
int runAblation(bool Smoke, unsigned Threads, unsigned NumNests) {
  unsigned Reps = Smoke ? 1 : 3;
  std::mt19937_64 Rng(0x5EEDBA7C4);
  std::string Source = generateBatchHeavyProgramSource(Rng, NumNests);

  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x3-ablation-workload", Opt);
  if (!Base.Parsed) {
    std::cerr << "ablation workload failed to parse\n";
    return 1;
  }
  const Program &Prog = *Base.Prog;
  SymbolRangeMap Symbols;

  auto Configured = [&](BatchMode Mode) {
    return timeBest(Reps, [&, Mode] {
      setBatchModeOverride(Mode);
      TestStats S;
      DependenceGraph G =
          DependenceGraph::build(Prog, Symbols, &S, false, Threads);
      setBatchModeOverride(std::nullopt);
      return std::pair(G.dependences(), S);
    });
  };
  Measurement Scalar = Configured(BatchMode::Off);
  Measurement Batched = Configured(BatchMode::On);

  // The whole point of the fast path: routing must not change results.
  if (Batched.EdgeReport != Scalar.EdgeReport) {
    std::cerr << "FAIL: batched and scalar graphs differ\n";
    return 1;
  }
  if (!(Batched.Stats == Scalar.Stats)) {
    std::cerr << "FAIL: batched and scalar TestStats differ\n";
    return 1;
  }
  uint64_t ScalarRouting = Scalar.Stats.BatchedZIV +
                           Scalar.Stats.BatchedStrongSIV +
                           Scalar.Stats.ScalarFallback;
  if (ScalarRouting != 0) {
    std::cerr << "FAIL: scalar configuration reported batched routing\n";
    return 1;
  }
  if (Batched.Stats.BatchedZIV == 0 || Batched.Stats.BatchedStrongSIV == 0) {
    std::cerr << "FAIL: batch-heavy workload produced no batched verdicts\n";
    return 1;
  }
  if (NumNests >= 11 && Batched.Stats.ScalarFallback == 0) {
    std::cerr << "FAIL: coupled nests did not reach the scalar fallback\n";
    return 1;
  }

  uint64_t Pairs = Scalar.Stats.ReferencePairs;
  double ScalarPps = Pairs / Scalar.Secs;
  double BatchedPps = Pairs / Batched.Secs;
  double Speedup = Scalar.Secs / Batched.Secs;

  std::printf("x3 batched-vs-scalar ablation: %u nests, %llu tested pairs, "
              "%u threads\n",
              NumNests, static_cast<unsigned long long>(Pairs), Threads);
  std::printf("  scalar:   %8.1f ms  %10.0f pairs/sec\n", Scalar.Secs * 1e3,
              ScalarPps);
  std::printf("  batched:  %8.1f ms  %10.0f pairs/sec  (%.2fx)\n",
              Batched.Secs * 1e3, BatchedPps, Speedup);
  std::printf("  routing: ziv %llu, strong-siv %llu, scalar fallback %llu\n",
              static_cast<unsigned long long>(Batched.Stats.BatchedZIV),
              static_cast<unsigned long long>(Batched.Stats.BatchedStrongSIV),
              static_cast<unsigned long long>(Batched.Stats.ScalarFallback));

  // One fresh, metrics-armed build per configuration so each report
  // carries its own counters (Metrics are process-global; reset
  // between renders). Stats and Counter-class metrics are identical
  // across the two documents by construction — only the Sched-class
  // "routing" section and memo/pool splits may differ, which is
  // exactly what the depprof_ablation_diff ctest exercises.
  auto EmitReport = [&](const char *FileName, const char *Config,
                        BatchMode Mode) {
    setBatchModeOverride(Mode);
    Metrics::reset();
    if (!Metrics::enabled())
      Metrics::enable();
    TestStats S;
    auto Start = std::chrono::steady_clock::now();
    DependenceGraph::build(Prog, Symbols, &S, false, Threads);
    int64_t WallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    setBatchModeOverride(std::nullopt);
    RunReport::reset();
    RunReport::noteTool("bench_x3_graph_throughput");
    RunReport::noteWorkload("mode", "ablation");
    RunReport::noteWorkload("config", Config);
    RunReport::noteWorkload("nests", static_cast<uint64_t>(NumNests));
    RunReport::noteStats(S);
    RunReport::noteWallNs(WallNs);
    if (!RunReport::writeTo(benchOutputPath(FileName))) {
      std::cerr << "FAIL: cannot write " << FileName << "\n";
      return false;
    }
    return true;
  };
  if (!EmitReport("BENCH_x3_ablation_scalar.json", "scalar", BatchMode::Off) ||
      !EmitReport("BENCH_x3_ablation_batched.json", "batched", BatchMode::On))
    return 1;

  std::ofstream Json(benchOutputPath("BENCH_graph_ablation.json"));
  Json << "{\n"
       << benchMetaJson("x3_graph_ablation") << ",\n"
       << "  \"workload\": {\"nests\": " << NumNests
       << ", \"tested_pairs\": " << Pairs
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"scalar_ms\": " << Scalar.Secs * 1e3 << ",\n"
       << "  \"batched_ms\": " << Batched.Secs * 1e3 << ",\n"
       << "  \"scalar_pairs_per_sec\": " << ScalarPps << ",\n"
       << "  \"batched_pairs_per_sec\": " << BatchedPps << ",\n"
       << "  \"speedup_batched_vs_scalar\": " << Speedup << ",\n"
       << "  \"batched_ziv\": " << Batched.Stats.BatchedZIV << ",\n"
       << "  \"batched_strong_siv\": " << Batched.Stats.BatchedStrongSIV
       << ",\n"
       << "  \"scalar_fallback\": " << Batched.Stats.ScalarFallback << ",\n"
       << "  \"graphs_identical\": true,\n"
       << "  \"stats_identical\": true\n"
       << "}\n";

  if (!Smoke && Speedup < 1.5) {
    std::cerr << "FAIL: batched path only " << Speedup
              << "x over scalar (need >= 1.5x)\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  RunReport::noteTool("bench_x3_graph_throughput");
  bool Smoke = false;
  bool Ablation = false;
  unsigned Threads = 4;
  unsigned NumNests = 64;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--ablation"))
      Ablation = true;
    else if (!std::strcmp(argv[I], "--threads") && I + 1 != argc)
      Threads = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--nests") && I + 1 != argc)
      NumNests = std::strtoul(argv[++I], nullptr, 10);
    else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--ablation] [--threads N] [--nests N]\n";
      return 2;
    }
  }
  if (Ablation)
    return runAblation(Smoke, Threads, Smoke ? 12 : NumNests);
  if (Smoke)
    NumNests = 4;
  unsigned Reps = Smoke ? 1 : 3;

  // A large synthetic program: stencil statements over shared arrays,
  // so same-array buckets are big and the pair population is dense.
  std::mt19937_64 Rng(0xBADC0FFEE);
  std::string Source = generateRandomProgramSource(Rng, NumNests,
                                                   /*MaxDepth=*/3,
                                                   /*StmtsPerNest=*/3);

  // Parse and normalize once; every configuration rebuilds the graph
  // from the same Program under the same symbol assumptions.
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x3-workload", Opt);
  if (!Base.Parsed) {
    std::cerr << "workload failed to parse\n";
    return 1;
  }
  const Program &Prog = *Base.Prog;
  SymbolRangeMap Symbols;
  Symbols.try_emplace("n", Interval(1, std::nullopt));

  unsigned NumAccesses = collectAccesses(Prog).size();
  if (!Smoke && NumAccesses < 500) {
    std::cerr << "workload too small: " << NumAccesses << " accesses\n";
    return 1;
  }

  Measurement Seed = timeBest(Reps, [&] {
    TestStats S;
    std::vector<Dependence> Edges = buildSeedEdges(Prog, Symbols, &S);
    return std::pair(std::move(Edges), S);
  });
  Measurement Serial = timeBest(Reps, [&] {
    TestStats S;
    DependenceGraph G = DependenceGraph::build(Prog, Symbols, &S, false, 1);
    return std::pair(G.dependences(), S);
  });
  Measurement Parallel = timeBest(Reps, [&] {
    TestStats S;
    DependenceGraph G =
        DependenceGraph::build(Prog, Symbols, &S, false, Threads);
    return std::pair(G.dependences(), S);
  });

  // Hard equivalence: all three paths must agree edge for edge and
  // counter for counter.
  if (Serial.EdgeReport != Seed.EdgeReport ||
      Parallel.EdgeReport != Seed.EdgeReport) {
    std::cerr << "FAIL: graph mismatch between configurations\n";
    return 1;
  }
  if (!(Serial.Stats == Seed.Stats) || !(Parallel.Stats == Seed.Stats)) {
    std::cerr << "FAIL: TestStats mismatch between configurations\n";
    return 1;
  }

  uint64_t Pairs = Seed.Stats.ReferencePairs;
  double SeedPps = Pairs / Seed.Secs;
  double SerialPps = Pairs / Serial.Secs;
  double ParallelPps = Pairs / Parallel.Secs;
  double SpeedupSerial = Seed.Secs / Serial.Secs;
  double SpeedupParallel = Seed.Secs / Parallel.Secs;
  double ThreadScaling = Serial.Secs / Parallel.Secs;

  std::printf("x3 graph throughput: %u accesses, %llu tested pairs, %llu edges\n",
              NumAccesses, static_cast<unsigned long long>(Pairs),
              static_cast<unsigned long long>(std::count(
                  Seed.EdgeReport.begin(), Seed.EdgeReport.end(), '\n')));
  std::printf("  seed path:          %8.1f ms  %10.0f pairs/sec\n",
              Seed.Secs * 1e3, SeedPps);
  std::printf("  cached serial:      %8.1f ms  %10.0f pairs/sec  (%.2fx vs seed)\n",
              Serial.Secs * 1e3, SerialPps, SpeedupSerial);
  std::printf("  cached %u-thread:    %8.1f ms  %10.0f pairs/sec  (%.2fx vs seed, %.2fx vs serial)\n",
              Threads, Parallel.Secs * 1e3, ParallelPps, SpeedupParallel,
              ThreadScaling);

  std::ofstream Json(benchOutputPath("BENCH_graph_throughput.json"));
  Json << "{\n"
       << benchMetaJson("x3_graph_throughput") << ",\n"
       << "  \"workload\": {\"nests\": " << NumNests
       << ", \"accesses\": " << NumAccesses << ", \"tested_pairs\": " << Pairs
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"seed_ms\": " << Seed.Secs * 1e3 << ",\n"
       << "  \"serial_ms\": " << Serial.Secs * 1e3 << ",\n"
       << "  \"parallel_ms\": " << Parallel.Secs * 1e3 << ",\n"
       << "  \"seed_pairs_per_sec\": " << SeedPps << ",\n"
       << "  \"serial_pairs_per_sec\": " << SerialPps << ",\n"
       << "  \"parallel_pairs_per_sec\": " << ParallelPps << ",\n"
       << "  \"speedup_serial_vs_seed\": " << SpeedupSerial << ",\n"
       << "  \"speedup_parallel_vs_seed\": " << SpeedupParallel << ",\n"
       << "  \"thread_scaling\": " << ThreadScaling << ",\n"
       << "  \"graphs_identical\": true,\n"
       << "  \"stats_identical\": true\n"
       << "}\n";

  if (!Smoke && SpeedupParallel < 2.0) {
    std::cerr << "FAIL: parallel pipeline only " << SpeedupParallel
              << "x over the seed path (need >= 2x)\n";
    return 1;
  }
  return 0;
}
