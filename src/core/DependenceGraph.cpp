//===- core/DependenceGraph.cpp - Program-level dependences ---------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceGraph.h"

#include "core/AccessLoweringCache.h"
#include "core/BatchedSIV.h"
#include "core/PairBatch.h"
#include "ir/PrettyPrinter.h"
#include "support/Casting.h"
#include "support/EventLog.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "support/Watchdog.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace pdt;

std::vector<OrientedVector> pdt::orientVectors(const DependenceVector &V) {
  std::vector<OrientedVector> Result;
  unsigned Depth = V.depth();
  // At most a '<' and a '>' component per level plus the '=' one.
  Result.reserve(2 * Depth + 1);

  // Walk an all-'=' prefix; at each level emit the '<' and '>'
  // components, and continue only while '=' remains possible.
  for (unsigned L = 0; L != Depth; ++L) {
    DirectionSet S = V.Directions[L];
    if (S & DirLT) {
      OrientedVector O;
      O.Vector = V;
      for (unsigned P = 0; P != L; ++P) {
        O.Vector.Directions[P] = DirEQ;
        O.Vector.Distances[P] = 0;
      }
      O.Vector.Directions[L] = DirLT;
      if (O.Vector.Distances[L] && *O.Vector.Distances[L] <= 0)
        O.Vector.Distances[L].reset();
      O.CarriedLevel = L;
      Result.push_back(std::move(O));
    }
    if (S & DirGT) {
      // A '>' leading direction is the mirrored dependence from the
      // textual sink to the textual source.
      OrientedVector O;
      O.Reversed = true;
      O.Vector.Directions.assign(Depth, DirAll);
      O.Vector.Distances.assign(Depth, std::nullopt);
      for (unsigned P = 0; P != L; ++P) {
        O.Vector.Directions[P] = DirEQ;
        O.Vector.Distances[P] = 0;
      }
      O.Vector.Directions[L] = DirLT;
      // Mirror the tail: swap < and >, negate distances.
      for (unsigned P = L + 1; P != Depth; ++P) {
        DirectionSet T = V.Directions[P];
        DirectionSet M = T & DirEQ;
        if (T & DirLT)
          M |= DirGT;
        if (T & DirGT)
          M |= DirLT;
        O.Vector.Directions[P] = M;
        if (V.Distances[P])
          O.Vector.Distances[P] = -*V.Distances[P];
      }
      if (V.Distances[L] && *V.Distances[L] < 0)
        O.Vector.Distances[L] = -*V.Distances[L];
      O.CarriedLevel = L;
      Result.push_back(std::move(O));
    }
    if (!(S & DirEQ))
      return Result;
    // Distances contradict a continued '=' prefix when non-zero.
    if (V.Distances[L] && *V.Distances[L] != 0)
      return Result;
  }

  // All levels admit '=': the loop-independent component.
  OrientedVector O;
  O.Vector = V;
  for (unsigned P = 0; P != Depth; ++P) {
    O.Vector.Directions[P] = DirEQ;
    O.Vector.Distances[P] = 0;
  }
  Result.push_back(std::move(O));
  return Result;
}

namespace {

/// Converts one pair's test result into directed dependence edges.
/// Shared by the tested path and the budget-exhausted conservative
/// path, so degraded edges orient and classify exactly like real ones.
std::vector<Dependence> emitEdges(const std::vector<ArrayAccess> &Accesses,
                                  unsigned I, unsigned J,
                                  const DependenceTestResult &R) {
  const ArrayAccess &A = Accesses[I];
  bool SelfPair = I == J;
  std::vector<Dependence> Out;

  if (R.isIndependent())
    return Out;

  // The common nest is a prefix of both loop stacks, so a carried
  // level indexes A's stack directly.
  for (const DependenceVector &V : R.Vectors) {
    std::vector<OrientedVector> Oriented = orientVectors(V);
    if (Out.empty())
      Out.reserve(Oriented.size());
    for (const OrientedVector &O : Oriented) {
      Dependence D;
      D.Source = O.Reversed ? J : I;
      D.Sink = O.Reversed ? I : J;
      // Loop-independent dependences flow with textual order; the
      // collection order (reads before the write of the same
      // statement, statements in program order) encodes it.
      if (!O.CarriedLevel && O.Reversed)
        continue; // Covered by the forward all-'=' component.
      // For a self pair, the same instance is not a dependence and
      // the reversed carried component mirrors the forward one.
      if (SelfPair && (!O.CarriedLevel || O.Reversed))
        continue;
      D.Vector = O.Vector;
      D.CarriedLevel = O.CarriedLevel;
      D.Carrier = O.CarriedLevel ? A.LoopStack[*O.CarriedLevel] : nullptr;
      D.Exact = R.Exact;
      D.Degraded = R.Degraded;
      if (R.Degraded && R.Failure)
        D.DegradedReason = R.Failure->Kind;
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
      Out.push_back(std::move(D));
    }
  }
  return Out;
}

/// The conservative edges for a pair that was never tested (exhausted
/// budget) or whose testing failed past every inner containment layer.
/// \p CountPair adds the pair to the structural statistics; pass false
/// when the failed test already counted it.
std::vector<Dependence>
degradedPairEdges(const std::vector<ArrayAccess> &Accesses, unsigned I,
                  unsigned J, AnalysisFailure Failure, TestStats *Stats,
                  bool CountPair) {
  unsigned Depth = commonLoops(Accesses[I], Accesses[J]).size();
  if (Stats && CountPair) {
    ++Stats->ReferencePairs;
    unsigned Dims = std::min(Accesses[I].Ref->getNumDims(),
                             Accesses[J].Ref->getNumDims());
    ++Stats->DimensionHistogram[std::min(Dims - 1, 3u)];
  }
  // Counters already record *how many* pairs degraded; the journal
  // records *which* and *why* (rate-limited, so a degradation storm
  // cannot flood it). The enabled() guard keeps the disarmed cost to
  // one relaxed load on this already-cold path.
  if (EventLog::enabled())
    EventLog::event(EventSeverity::Warn, "core", "degraded-pair",
                    std::string(failureKindName(Failure.Kind)) +
                        (Failure.Message.empty() ? "" : ": ") +
                        Failure.Message,
                    {{"src", I}, {"snk", J}});
  return emitEdges(Accesses, I, J,
                   degradedTestResult(Depth, std::move(Failure), Stats));
}

} // namespace

DependenceGraph DependenceGraph::build(const Program &P,
                                       const SymbolRangeMap &Symbols,
                                       TestStats *Stats, bool IncludeInput,
                                       unsigned NumThreads,
                                       const ResourceBudget *Budget) {
  Span BuildSpan("DependenceGraph::build", "graph");
  int64_t BuildStartNs = Metrics::enabled() ? Trace::nowNs() : 0;
  Metrics::count(Metric::GraphBuilds);

  DependenceGraph G;
  G.Prog = &P;
  G.Accesses = collectAccesses(P);

  std::set<std::string> VaryingScalars = collectVaryingScalars(P);

  // Per-pair results are emitted in the enumeration's (I, J) order, so
  // the graph is byte-identical to a serial build no matter how many
  // workers test the pairs.
  std::vector<std::pair<unsigned, unsigned>> Pairs =
      enumerateAccessPairs(G.Accesses, IncludeInput);

  unsigned Workers = ThreadPool::resolveThreadCount(NumThreads);
  Workers = std::max(1u, std::min<unsigned>(Workers, Pairs.size() ? Pairs.size() : 1));
  // Tiny pair populations lose more to pool construction and chunk
  // handoff than they gain from parallel testing: stay serial when the
  // caller left the thread count to us (an explicit NumThreads is an
  // explicit request). Fault injection also forces the serial order,
  // so injection checkpoints keep their deterministic numbering.
  constexpr size_t MinPairsForPool = 32;
  bool Faulted = FaultInjector::anyArmed();
  if ((NumThreads == 0 && Pairs.size() < MinPairsForPool) || Faulted)
    Workers = 1;

  std::optional<BudgetTracker> Tracker;
  if (Budget)
    Tracker.emplace(*Budget);

  // Stall watchdog probe: beats per pair from whichever worker tests
  // it. The quiet interval follows the query deadline when one exists
  // — a build silent past a multiple of its own deadline is stuck, not
  // slow.
  Heartbeat BuildBeat("DependenceGraph::build",
                      Budget && Budget->Deadline
                          ? static_cast<uint64_t>(Budget->Deadline->count())
                          : 0);

  // Route eligible ZIV/strong-SIV pairs through the batched SoA
  // kernels unless the mode, a pair-skipping budget, or armed fault
  // injection says otherwise. A deadline or pair cap degrades pairs
  // mid-run in scalar enumeration order and injection must hit scalar
  // checkpoints, so those need the pure scalar order; the FM caps never
  // fire on batched pairs (ZIV/strong-SIV decide without
  // Fourier-Motzkin), so the driver's default budget does not forfeit
  // batching.
  bool BudgetSkipsPairs =
      Tracker && (Tracker->limits().Deadline || Tracker->limits().MaxPairs);
  BatchMode Mode = batchMode();
  bool Batched = !BudgetSkipsPairs && !Faulted &&
                 (Mode == BatchMode::On ||
                  (Mode == BatchMode::Auto && Pairs.size() >= MinPairsForPool));

  AccessLoweringCache Cache(G.Accesses, Symbols, &VaryingScalars);

  std::vector<std::vector<Dependence>> PerPair(Pairs.size());
  // Last-resort containment: one poisoned pair (e.g. bad_alloc or an
  // invariant violation escaping the inner boundaries) degrades only
  // its own edges, on either route.
  auto Contain = [&](size_t PairIdx, unsigned I, unsigned J, TestStats *WS,
                     auto &&Test) {
    try {
      Test();
    } catch (const std::exception &E) {
      PerPair[PairIdx] = degradedPairEdges(
          G.Accesses, I, J,
          AnalysisFailure{FailureKind::InternalInvariant, E.what()}, WS,
          /*CountPair=*/false);
    }
  };
  // One strided stripe per worker: stripe k takes pairs k, k+N, ... of
  // the sorted list, so every stripe sees the same mix of cheap and
  // expensive pairs. Each pair is lowered once and then either planned
  // into the stripe's batch or tested on the scalar path from that same
  // lowering; the batch is decided and materialized at the stripe's
  // end. Every pair writes only its own PerPair slot and the stripe's
  // statistics sink, merged after the run — TestStats merging is
  // additive, so the merge order cannot matter.
  std::vector<TestStats> StripeStats(Stats ? Workers : 0);
  auto RouteStripe = [&](size_t Stripe, unsigned) {
    TestStats *WS = Stats ? &StripeStats[Stripe] : nullptr;
    PairBatchPlan Plan;
    for (size_t PairIdx = Stripe; PairIdx < Pairs.size(); PairIdx += Workers) {
      BuildBeat.beat();
      auto [I, J] = Pairs[PairIdx];
      // Budgets are enforced on the deterministic sorted pair order for
      // MaxPairs (so the degraded tail is identical across thread
      // counts); deadline degradation depends on wall time by nature.
      if (Tracker && (Tracker->pairBudgetExceeded(PairIdx) ||
                      Tracker->deadlineExpired())) {
        Metrics::count(Tracker->pairBudgetExceeded(PairIdx)
                           ? Metric::BudgetPairSkips
                           : Metric::BudgetDeadlineSkips);
        PerPair[PairIdx] = degradedPairEdges(
            G.Accesses, I, J,
            AnalysisFailure{FailureKind::BudgetExhausted,
                            "pair skipped: query budget exhausted"},
            WS, /*CountPair=*/true);
        continue;
      }
      Contain(PairIdx, I, J, WS, [&] {
        if (std::optional<DependenceTestResult> R = Cache.routePair(
                I, J, PairIdx, Batched ? &Plan : nullptr, WS))
          PerPair[PairIdx] = emitEdges(G.Accesses, I, J, *R);
      });
    }
    decidePairBatch(Plan);
    for (const PairBatchPlan::PairRecord &Rec : Plan.Pairs)
      Contain(Rec.PairIdx, Rec.I, Rec.J, WS, [&] {
        PerPair[Rec.PairIdx] = emitEdges(G.Accesses, Rec.I, Rec.J,
                                         materializeBatchedPair(Plan, Rec, WS));
      });
  };

  // A lone stripe runs inline, without a pool.
  if (Workers == 1) {
    RouteStripe(/*Stripe=*/0, /*Worker=*/0);
  } else {
    ThreadPool Pool(Workers);
    Pool.parallelFor(Workers, RouteStripe);
  }

  if (Stats)
    for (const TestStats &WS : StripeStats)
      Stats->merge(WS);
  size_t NumEdges = 0;
  for (const std::vector<Dependence> &Edges : PerPair)
    NumEdges += Edges.size();
  G.Edges.reserve(NumEdges);
  for (std::vector<Dependence> &Edges : PerPair)
    for (Dependence &D : Edges)
      G.Edges.push_back(std::move(D));

  for (const Dependence &D : G.Edges)
    if (D.Carrier)
      ++G.CarrierEdgeCount[D.Carrier];

  if (Metrics::enabled()) {
    Metrics::count(Metric::PairsEnumerated, Pairs.size());
    Metrics::count(Metric::EdgesEmitted, G.Edges.size());
    Metrics::count(Metric::GraphBuildNs,
                   static_cast<uint64_t>(Trace::nowNs() - BuildStartNs));
  }
  return G;
}

std::vector<std::pair<unsigned, unsigned>>
pdt::enumerateAccessPairs(const std::vector<ArrayAccess> &Accesses,
                          bool IncludeInput) {
  // Bucket accesses by array name: only same-array pairs can ever
  // depend, so cross-array pairs are not even enumerated.
  std::map<std::string, std::vector<unsigned>> Buckets;
  for (unsigned I = 0, E = Accesses.size(); I != E; ++I)
    Buckets[Accesses[I].Ref->getArrayName()].push_back(I);

  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (const auto &[Name, Members] : Buckets) {
    for (unsigned A = 0, E = Members.size(); A != E; ++A) {
      for (unsigned B = A; B != E; ++B) {
        unsigned I = Members[A], J = Members[B];
        // A reference against itself can only produce an output
        // self-dependence (distinct iterations writing one element,
        // e.g. a(5) or a(i/2-free dims)); reads need no self edge.
        if (I == J && !Accesses[I].IsWrite)
          continue;
        if (!IncludeInput && !Accesses[I].IsWrite && !Accesses[J].IsWrite)
          continue;
        Pairs.emplace_back(I, J);
      }
    }
  }
  // Buckets come out in array-name order; restore the serial (I, J)
  // order.
  std::sort(Pairs.begin(), Pairs.end());
  return Pairs;
}

bool DependenceGraph::isLoopParallel(const DoLoop *Loop) const {
  return carriedEdgeCount(Loop) == 0;
}

unsigned DependenceGraph::carriedEdgeCount(const DoLoop *Loop) const {
  auto It = CarrierEdgeCount.find(Loop);
  return It == CarrierEdgeCount.end() ? 0 : It->second;
}

std::vector<const DoLoop *> DependenceGraph::allLoops() const {
  std::vector<const DoLoop *> Loops;
  auto Walk = [&Loops](auto &&Self, const Stmt *S) -> void {
    if (const auto *L = dyn_cast<DoLoop>(S)) {
      Loops.push_back(L);
      for (const Stmt *Child : L->getBody())
        Self(Self, Child);
    }
  };
  for (const Stmt *S : Prog->TopLevel)
    Walk(Walk, S);
  return Loops;
}

std::string DependenceGraph::str() const {
  std::string Out;
  for (const Dependence &D : Edges) {
    const ArrayAccess &Src = Accesses[D.Source];
    const ArrayAccess &Snk = Accesses[D.Sink];
    Out += dependenceKindName(D.Kind);
    Out += " dependence: ";
    Out += exprToString(Src.Ref);
    Out += " -> ";
    Out += exprToString(Snk.Ref);
    Out += "  vector ";
    Out += D.Vector.str();
    if (D.Carrier) {
      Out += "  carried by loop ";
      Out += D.Carrier->getIndexName();
    } else {
      Out += "  loop-independent";
    }
    if (D.Degraded) {
      Out += "  (degraded";
      if (D.DegradedReason) {
        Out += ": ";
        Out += failureKindName(*D.DegradedReason);
      }
      Out += ")";
    } else if (!D.Exact) {
      Out += "  (assumed)";
    }
    Out += "\n";
  }
  return Out;
}
