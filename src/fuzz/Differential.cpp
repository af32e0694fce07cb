//===- fuzz/Differential.cpp - Three-decider cross-check ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "core/DependenceGraph.h"
#include "core/DependenceTester.h"
#include "core/FourierMotzkin.h"
#include "core/Oracle.h"
#include "core/PairBatch.h"
#include "core/ResultStore.h"
#include "driver/Interpreter.h"
#include "ir/AccessCollector.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"

#include <algorithm>
#include <sstream>

using namespace pdt;

const char *pdt::fuzzDiscrepancyKindName(FuzzDiscrepancyKind K) {
  switch (K) {
  case FuzzDiscrepancyKind::SoundnessViolation:
    return "soundness-violation";
  case FuzzDiscrepancyKind::BaselineSoundness:
    return "baseline-soundness";
  case FuzzDiscrepancyKind::DeciderContradiction:
    return "decider-contradiction";
  case FuzzDiscrepancyKind::FalseExact:
    return "false-exact";
  case FuzzDiscrepancyKind::DynamicUncovered:
    return "dynamic-uncovered";
  case FuzzDiscrepancyKind::DegradedResult:
    return "degraded-result";
  case FuzzDiscrepancyKind::BatchDivergence:
    return "batch-divergence";
  case FuzzDiscrepancyKind::StoreDivergence:
    return "store-divergence";
  case FuzzDiscrepancyKind::Abort:
    return "abort";
  }
  return "unknown";
}

namespace {

std::string tupleStr(const std::vector<int> &Tuple) {
  std::string S = "(";
  for (unsigned L = 0; L != Tuple.size(); ++L) {
    if (L)
      S += ",";
    S += Tuple[L] < 0 ? "<" : (Tuple[L] > 0 ? ">" : "=");
  }
  return S + ")";
}

/// Applies the deliberately planted harness-validation bug to a fast
/// suite result.
void applyDeliberateBug(DependenceTestResult &R, FuzzCheckConfig::Bug Bug) {
  switch (Bug) {
  case FuzzCheckConfig::Bug::None:
    return;
  case FuzzCheckConfig::Bug::ForceIndependent:
    R.TheVerdict = Verdict::Independent;
    R.Degraded = false;
    R.Vectors.clear();
    return;
  case FuzzCheckConfig::Bug::DropLTDirection:
    for (DependenceVector &V : R.Vectors)
      if (V.depth() != 0)
        V.Directions[0] = static_cast<DirectionSet>(V.Directions[0] & ~DirLT);
    std::erase_if(R.Vectors, [](const DependenceVector &V) {
      return V.depth() != 0 && V.Directions[0] == DirNone;
    });
    return;
  }
}

/// Cross-checks one access pair; appends discrepancies to \p Verdict.
void checkPair(const FuzzKernel &K, const FuzzPair &Pair,
               const LoopNestContext &SymCtx, const FuzzCheckConfig &Config,
               FuzzKernelVerdict &Out) {
  auto Report = [&](FuzzDiscrepancyKind Kind, std::string Detail) {
    Out.Discrepancies.push_back(
        {Kind, Pair.SrcAccess, Pair.SnkAccess, std::move(Detail)});
  };

  // Decider 1: the fast partitioned suite (the system under test).
  DependenceTestResult Fast = testDependence(Pair.Subscripts, SymCtx);
  applyDeliberateBug(Fast, Config.DeliberateBug);
  if (Config.FailOnDegraded && Fast.Degraded)
    Report(FuzzDiscrepancyKind::DegradedResult,
           Fast.Failure ? Fast.Failure->str() : "degraded without reason");

  // Decider 2: the Fourier-Motzkin baseline.
  Out.PairsChecked += 1;
  Metrics::count(Metric::FuzzPairsChecked);
  Verdict FM = Verdict::Maybe;
  if (Config.RunFourierMotzkin)
    FM = fourierMotzkinTest(Pair.Subscripts, SymCtx);

  // An exact dependence claim against an FM independence proof cannot
  // both be right, ground truth or not.
  if (FM == Verdict::Independent && !Fast.Degraded &&
      Fast.TheVerdict == Verdict::Dependent && Fast.Exact)
    Report(FuzzDiscrepancyKind::DeciderContradiction,
           "fast suite: exact dependence; Fourier-Motzkin: independent");

  // Decider 3: brute-force ground truth on the concretized pair.
  std::optional<ConcreteFuzzPair> Concrete = concretizeFuzzPair(K, Pair);
  if (!Concrete)
    return; // Symbol substitution overflowed: hostile-input stratum.
  std::optional<OracleResult> Truth = enumerateDependences(
      Concrete->Subscripts, Concrete->Ctx, Config.OracleMaxPairs);
  if (!Truth)
    return; // Non-enumerable (overflow or budget): cross-checks only.
  Out.GroundTruth = true;

  // The self pair's all-'=' tuple is the same dynamic instance, not a
  // dependence.
  std::set<std::vector<int>> Tuples = Truth->DirectionTuples;
  if (Pair.SrcAccess == Pair.SnkAccess)
    Tuples.erase(std::vector<int>(SymCtx.depth(), 0));
  bool Dependent = !Tuples.empty();

  if (Dependent) {
    if (Fast.isIndependent()) {
      Report(FuzzDiscrepancyKind::SoundnessViolation,
             std::string("fast suite: independent (by ") +
                 testKindName(Fast.DecidedBy) +
                 "); enumeration: dependent with " +
                 tupleStr(*Tuples.begin()));
    } else {
      for (const std::vector<int> &T : Tuples)
        if (!vectorsAdmitTuple(Fast.Vectors, T)) {
          Report(FuzzDiscrepancyKind::SoundnessViolation,
                 "fast suite vectors miss observed direction " + tupleStr(T));
          break;
        }
    }
    if (FM == Verdict::Independent)
      Report(FuzzDiscrepancyKind::BaselineSoundness,
             "Fourier-Motzkin: independent; enumeration: dependent with " +
                 tupleStr(*Tuples.begin()));
  } else {
    // A self pair's "dependent" is satisfied by the access coinciding
    // with itself (the all-'=' tuple the oracle convention drops), so
    // it only contradicts empty enumeration when the vectors exclude
    // that same-instance solution.
    bool SelfConsistent =
        Pair.SrcAccess == Pair.SnkAccess &&
        (Fast.Vectors.empty() ||
         vectorsAdmitTuple(Fast.Vectors, std::vector<int>(SymCtx.depth(), 0)));
    if (!Fast.isIndependent() && !SelfConsistent) {
      // Exact dependence claims are only checkable without symbols:
      // under symbol assumptions "exact" quantifies over every
      // admissible value, and this instantiation is just one of them.
      if (Fast.TheVerdict == Verdict::Dependent && Fast.Exact &&
          !Fast.Degraded && K.SymbolValues.empty())
        Report(FuzzDiscrepancyKind::FalseExact,
               "fast suite: exact dependence; enumeration: none");
      else {
        Out.ExactnessLosses += 1;
        Metrics::count(Metric::FuzzExactnessLosses);
      }
    }
  }
}

/// The whole-pipeline decider: build the dependence graph under the
/// standard symbolic assumptions, execute the kernel at the sampled
/// symbol values, and require every dynamic conflict to be covered.
void checkDynamicCoverage(const FuzzKernel &K, const FuzzCheckConfig &Config,
                          FuzzKernelVerdict &Out) {
  Program P = fuzzKernelToProgram(K);

  InterpreterOptions Exec;
  Exec.Symbols = K.SymbolValues;
  Exec.MaxAccesses = Config.MaxDynamicAccesses;
  ExecutionTrace Trace = interpret(P, Exec);
  if (!Trace.OK)
    return; // Out of budget or hostile arithmetic: nothing to check.

  SymbolRangeMap Ranges;
  for (const auto &[Name, Value] : K.SymbolValues) {
    (void)Value;
    Ranges[Name] = Interval(1, std::nullopt);
  }
  // Scoped batch-mode override so an escaping exception cannot leave
  // the worker thread pinned to a routing.
  struct BatchModeGuard {
    explicit BatchModeGuard(BatchMode M) { setBatchModeOverride(M); }
    ~BatchModeGuard() { setBatchModeOverride(std::nullopt); }
  };

  // The baseline (and the batch cross-check below) must be computed
  // fresh: a persistent store serving cached answers into the
  // reference build would mask exactly the divergences the store
  // cross-check exists to find.
  TestStats ScalarStats;
  DependenceGraph G = [&] {
    StoreBypassGuard NoStore;
    BatchModeGuard Guard(BatchMode::Off);
    return DependenceGraph::build(P, Ranges, &ScalarStats,
                                  /*IncludeInput=*/false);
  }();
  Out.DynamicChecked = true;

  // The fourth decider dimension: the batched SoA fast path must be
  // indistinguishable from the scalar testers on every kernel. Forced
  // On (not Auto) so small kernels below the batching threshold still
  // exercise the planner and kernels.
  if (Config.RunBatchCrossCheck && !FaultInjector::armed()) {
    TestStats BatchedStats;
    DependenceGraph BatchedG = [&] {
      StoreBypassGuard NoStore;
      BatchModeGuard Guard(BatchMode::On);
      return DependenceGraph::build(P, Ranges, &BatchedStats,
                                    /*IncludeInput=*/false);
    }();
    bool GraphsDiffer = BatchedG.str() != G.str();
    if (GraphsDiffer || !(BatchedStats == ScalarStats)) {
      Out.Discrepancies.push_back(
          {FuzzDiscrepancyKind::BatchDivergence, ~0u, ~0u,
           GraphsDiffer ? "batched and scalar dependence graphs differ"
                        : "batched and scalar TestStats differ"});
      return;
    }
  }

  // The fifth decider dimension: cached answers must be
  // indistinguishable from fresh ones. Build the graph twice through
  // the active store — the first pass populates it with this kernel's
  // canonical records, the second is guaranteed to be served from
  // them — and require both graphs and their result-bearing TestStats
  // to match the store-bypassed baseline exactly. Scalar routing on
  // both passes so any difference implicates the store alone.
  if (Config.RunStoreCrossCheck && !FaultInjector::anyArmed() &&
      ResultStore::active()) {
    for (int Pass = 0; Pass != 2; ++Pass) {
      TestStats StoreStats;
      DependenceGraph StoreG = [&] {
        BatchModeGuard Guard(BatchMode::Off);
        return DependenceGraph::build(P, Ranges, &StoreStats,
                                      /*IncludeInput=*/false);
      }();
      Out.StoreCrossChecked = true;
      // The hit/miss split differs between passes by design; only the
      // analysis results must agree.
      bool GraphsDiffer = StoreG.str() != G.str();
      if (GraphsDiffer || StoreStats.resultKey() != ScalarStats.resultKey()) {
        std::string Detail =
            std::string(Pass == 0 ? "populating" : "store-served") +
            (GraphsDiffer ? " dependence graph differs from fresh build"
                          : " TestStats differ from fresh build");
        Out.Discrepancies.push_back({FuzzDiscrepancyKind::StoreDivergence,
                                     ~0u, ~0u, std::move(Detail)});
        return;
      }
    }
  }

  auto Covered = [&G](unsigned Src, unsigned Snk,
                      const std::vector<int> &Tuple) {
    for (const Dependence &D : G.dependences()) {
      if (D.Source != Src || D.Sink != Snk || D.Vector.depth() != Tuple.size())
        continue;
      bool OK = true;
      for (unsigned L = 0; L != Tuple.size() && OK; ++L) {
        DirectionSet Need =
            Tuple[L] < 0 ? DirLT : (Tuple[L] > 0 ? DirGT : DirEQ);
        if (!(D.Vector.Directions[L] & Need))
          OK = false;
      }
      if (OK)
        return true;
    }
    return false;
  };

  std::map<std::pair<std::string, std::vector<int64_t>>,
           std::vector<const RecordedAccess *>>
      ByCell;
  for (const RecordedAccess &A : Trace.Accesses)
    ByCell[{A.Array, A.Indices}].push_back(&A);

  for (const auto &[Cell, List] : ByCell) {
    (void)Cell;
    for (unsigned I = 0; I != List.size(); ++I) {
      for (unsigned J = I + 1; J != List.size(); ++J) {
        const RecordedAccess &A = *List[I]; // Earlier in time.
        const RecordedAccess &B = *List[J];
        if (!A.IsWrite && !B.IsWrite)
          continue;
        unsigned Common =
            commonLoops(G.accesses()[A.AccessIndex], G.accesses()[B.AccessIndex])
                .size();
        std::vector<int> Tuple;
        bool SamePoint = A.AccessIndex == B.AccessIndex;
        for (unsigned L = 0; L != Common; ++L) {
          int64_t D = B.Iteration[L] - A.Iteration[L];
          Tuple.push_back(D > 0 ? -1 : (D < 0 ? 1 : 0));
          SamePoint &= D == 0;
        }
        if (SamePoint)
          continue;
        if (!Covered(A.AccessIndex, B.AccessIndex, Tuple)) {
          std::ostringstream OS;
          OS << "dynamic conflict on " << A.Array << " between access "
             << A.AccessIndex << " and " << B.AccessIndex
             << " with direction " << tupleStr(Tuple) << " has no covering edge";
          Out.Discrepancies.push_back({FuzzDiscrepancyKind::DynamicUncovered,
                                       A.AccessIndex, B.AccessIndex, OS.str()});
          return; // One report per kernel is enough.
        }
      }
    }
  }
}

} // namespace

FuzzKernelVerdict pdt::checkFuzzKernel(const FuzzKernel &K,
                                       const FuzzCheckConfig &Config) {
  FuzzKernelVerdict Verdict;
  try {
    LoopNestContext SymCtx = symbolicFuzzContext(K);
    for (const FuzzPair &Pair : enumerateFuzzPairs(K))
      checkPair(K, Pair, SymCtx, Config, Verdict);
    if (Config.RunInterpreterCheck &&
        K.Index % std::max(1u, Config.InterpreterEvery) == 0)
      checkDynamicCoverage(K, Config, Verdict);
  } catch (const std::exception &E) {
    Verdict.Discrepancies.push_back(
        {FuzzDiscrepancyKind::Abort, ~0u, ~0u,
         std::string("exception escaped a decider: ") + E.what()});
  } catch (...) {
    Verdict.Discrepancies.push_back({FuzzDiscrepancyKind::Abort, ~0u, ~0u,
                                     "unknown exception escaped a decider"});
  }
  if (!Verdict.Discrepancies.empty())
    Metrics::count(Metric::FuzzDiscrepancies, Verdict.Discrepancies.size());
  return Verdict;
}
