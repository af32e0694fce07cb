//===- perfbench/src/Replay.cpp - Serial replay of a graph build ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "core/AccessLoweringCache.h"
#include "core/BatchedSIV.h"
#include "core/PairBatch.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <map>

using namespace pdt;

namespace perfbench {

namespace {

/// The edges DependenceGraph's emission keeps for one pair result: the
/// oriented components, minus the reversed loop-independent one and, for
/// a self pair, every component but the forward carried ones.
uint64_t countEdges(const DependenceTestResult &R, bool SelfPair) {
  if (R.isIndependent())
    return 0;
  uint64_t N = 0;
  for (const DependenceVector &V : R.Vectors)
    for (const OrientedVector &O : orientVectors(V)) {
      if (!O.CarriedLevel && O.Reversed)
        continue;
      if (SelfPair && (!O.CarriedLevel || O.Reversed))
        continue;
      ++N;
    }
  return N;
}

SpanName binOf(const TestStats &Delta, unsigned &Bin) {
  if (Delta.CoupledGroups) {
    Bin = 3;
    return SpanName::TestDelta;
  }
  if (Delta.MIVSubscripts) {
    Bin = 2;
    return SpanName::TestMIV;
  }
  if (Delta.SIVSubscripts) {
    Bin = 1;
    return SpanName::TestSIV;
  }
  Bin = 0;
  return SpanName::TestZIV;
}

} // namespace

ReplayResult replayBuild(const AnalysisResult &R,
                         const AnalyzerOptions &Options, Tracer &T) {
  ReplayResult Out;
  Scoped Whole(T, SpanName::Replay);
  const Program &P = *R.Prog;

  std::vector<ArrayAccess> Accesses;
  std::set<std::string> VaryingScalars;
  {
    Scoped S(T, SpanName::Collect);
    Accesses = collectAccesses(P);
    VaryingScalars = collectVaryingScalars(P);
  }
  Out.Accesses = Accesses.size();

  // The build's enumeration: same-array buckets, write-involving pairs,
  // serial (I, J) order.
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  {
    Scoped S(T, SpanName::Enumerate);
    std::map<std::string, std::vector<unsigned>> Buckets;
    for (unsigned I = 0, E = Accesses.size(); I != E; ++I)
      Buckets[Accesses[I].Ref->getArrayName()].push_back(I);
    for (const auto &[Name, Members] : Buckets)
      for (unsigned A = 0, E = Members.size(); A != E; ++A)
        for (unsigned B = A; B != E; ++B) {
          unsigned I = Members[A], J = Members[B];
          if (I == J && !Accesses[I].IsWrite)
            continue;
          if (!Options.IncludeInputDeps && !Accesses[I].IsWrite &&
              !Accesses[J].IsWrite)
            continue;
          Pairs.emplace_back(I, J);
        }
    std::sort(Pairs.begin(), Pairs.end());
  }
  Out.Pairs = Pairs.size();

  // The build's routing rule (DependenceGraph.cpp): batch unless a
  // pair-skipping budget or armed fault injection needs the scalar order.
  bool BudgetSkipsPairs =
      Options.Budget.Deadline.has_value() || Options.Budget.MaxPairs != 0;
  BatchMode Mode = batchMode();
  bool Batched = batchingCompiledIn() && !BudgetSkipsPairs &&
                 !FaultInjector::anyArmed() &&
                 (Mode == BatchMode::On ||
                  (Mode == BatchMode::Auto && Pairs.size() >= 32));

  std::optional<AccessLoweringCache> Cache;
  {
    Scoped S(T, SpanName::Lower);
    Cache.emplace(Accesses, R.ResolvedSymbols, &VaryingScalars);
  }

  std::vector<size_t> Scalar;
  if (Batched) {
    PairBatchPlan Plan;
    {
      Scoped S(T, SpanName::BatchPlan);
      for (size_t PairIdx = 0; PairIdx != Pairs.size(); ++PairIdx) {
        auto [I, J] = Pairs[PairIdx];
        if (!Cache->planBatchedPair(I, J, PairIdx, Plan)) {
          Scalar.push_back(PairIdx);
          ++Out.Stats.ScalarFallback;
        }
      }
    }
    Out.BatchAttempts = Pairs.size();
    Out.BatchAccepted = Plan.Pairs.size();
    {
      Scoped S(T, SpanName::BatchDecide);
      decidePairBatch(Plan);
    }
    for (const PairBatchPlan::PairRecord &Rec : Plan.Pairs) {
      DependenceTestResult Res;
      {
        Scoped S(T, SpanName::BatchMaterialize);
        Res = materializeBatchedPair(Plan, Rec, &Out.Stats);
      }
      Scoped S(T, SpanName::Emit);
      Out.Edges += countEdges(Res, Rec.I == Rec.J);
    }
  } else {
    Scalar.resize(Pairs.size());
    for (size_t PairIdx = 0; PairIdx != Pairs.size(); ++PairIdx)
      Scalar[PairIdx] = PairIdx;
  }

  for (size_t PairIdx : Scalar) {
    auto [I, J] = Pairs[PairIdx];
    TestStats Delta;
    int64_t Start = nowNs();
    DependenceTestResult Res = Cache->testPair(I, J, &Delta);
    int64_t End = nowNs();
    unsigned Bin = 0;
    T.record(binOf(Delta, Bin), Start, End);
    ++Out.BinPairs[Bin];
    Out.Stats += Delta;
    Scoped S(T, SpanName::Emit);
    Out.Edges += countEdges(Res, I == J);
  }
  return Out;
}

bool replayMatches(const ReplayResult &Replay, const AnalysisResult &Build) {
  const TestStats &A = Replay.Stats, &B = Build.Stats;
  return A == B && A.BatchedZIV == B.BatchedZIV &&
         A.BatchedStrongSIV == B.BatchedStrongSIV &&
         A.ScalarFallback == B.ScalarFallback &&
         Replay.Edges == Build.Graph.dependences().size();
}

} // namespace perfbench
