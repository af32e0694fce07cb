//===- core/AccessLoweringCache.cpp - Per-access lowering cache -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/AccessLoweringCache.h"

#include "core/Partition.h"
#include "ir/AST.h"
#include "support/Failure.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>

using namespace pdt;

/// One lock-striped bucket of the testDependence memo table, keyed by
/// the content hash; entries under one hash are told apart by
/// comparing their content.
struct AccessLoweringCache::MemoShard {
  std::mutex M;
  std::unordered_multimap<size_t, MemoizedResult> Table;
};

AccessLoweringCache::~AccessLoweringCache() = default;

AccessLoweringCache::AccessLoweringCache(
    const std::vector<ArrayAccess> &Accesses, const SymbolRangeMap &Symbols,
    const std::set<std::string> *VaryingScalars)
    : Accesses(Accesses), Symbols(Symbols),
      Memo(std::make_unique<MemoShard[]>(NumMemoShards)) {
  Metrics::count(Metric::AccessesLowered, Accesses.size());
  Lowered.resize(Accesses.size());
  for (unsigned I = 0, E = Accesses.size(); I != E; ++I)
    lowerAccess(I, VaryingScalars);
}

void AccessLoweringCache::lowerAccess(
    unsigned Access, const std::set<std::string> *VaryingScalars) {
  Span LowerSpan("AccessLoweringCache::lower", "cache");
  const ArrayAccess &Source = Accesses[Access];
  LoweredAccess &L = Lowered[Access];
  std::set<std::string> OwnIndices;
  for (const DoLoop *Loop : Source.LoopStack)
    OwnIndices.insert(Loop->getIndexName());

  L.Dims.reserve(Source.Ref->getNumDims());
  for (unsigned Dim = 0; Dim != Source.Ref->getNumDims(); ++Dim) {
    std::optional<LinearExpr> Linear;
    try {
      Linear = buildLinearExpr(Source.Ref->getSubscript(Dim), OwnIndices);
    } catch (const AnalysisError &) {
      // Coefficient overflow while lowering: the dimension is as
      // untestable as a nonlinear subscript — treat it as one.
      Linear.reset();
    }
    // A scalar assigned somewhere in the program is not a
    // loop-invariant symbol; the subscript is effectively nonlinear.
    if (Linear && VaryingScalars)
      for (const auto &[Name, Coeff] : Linear->symbolTerms())
        if (VaryingScalars->count(std::string(Name))) {
          Linear.reset();
          break;
        }
    L.Dims.push_back(std::move(Linear));
  }

  L.OwnCtx = LoopNestContext::overSharedSymbols(Source.LoopStack, Symbols);
}

namespace {

/// Depth of the common nest of \p A and \p B (their shared stack
/// prefix), without materializing it.
unsigned commonDepth(const ArrayAccess &A, const ArrayAccess &B) {
  unsigned N = std::min(A.LoopStack.size(), B.LoopStack.size());
  unsigned D = 0;
  while (D != N && A.LoopStack[D] == B.LoopStack[D])
    ++D;
  return D;
}

/// Retags the cached affine form for one pair: index terms of the
/// common nest (the outermost \p CommonDepth levels of \p L's own
/// nest) stay indices, any other index becomes a fresh ranged symbol
/// named after the side it belongs to, its range added to \p Extra.
/// LinearExpr is canonical, so the result is the value the
/// from-scratch path builds.
std::optional<LinearExpr> combineOverCommonNest(const LoweredAccess &L,
                                                unsigned Dim,
                                                unsigned CommonDepth,
                                                const char *Suffix,
                                                SymbolOverlay &Extra) {
  const std::optional<LinearExpr> &Linear = L.Dims[Dim];
  if (!Linear)
    return std::nullopt;
  auto IsRenamed = [&L, CommonDepth](std::string_view Name) {
    std::optional<unsigned> Level = L.OwnCtx.levelOf(Name);
    return !Level || *Level >= CommonDepth;
  };

  bool AnyRenamed = false;
  std::string Renamed;
  for (const auto &[Name, Coeff] : Linear->indexTerms()) {
    if (!IsRenamed(Name))
      continue;
    AnyRenamed = true;
    Renamed.assign(Name);
    Renamed += Suffix;
    auto Pos = std::lower_bound(
        Extra.begin(), Extra.end(), Renamed,
        [](const auto &Entry, const std::string &N) { return Entry.first < N; });
    if (Pos == Extra.end() || Pos->first != Renamed)
      Extra.emplace(Pos, Renamed, L.OwnCtx.indexRange(Name));
  }
  // The dominant same-nest case: every index is common.
  if (!AnyRenamed)
    return *Linear;
  return Linear->retagIndices(IsRenamed, Suffix);
}

/// Exact interval identity (unlike Interval::operator==, distinct
/// empty intervals differ), so memo entries split exactly where the
/// rendered ranges would.
bool sameBounds(const Interval &A, const Interval &B) {
  return A.lower() == B.lower() && A.upper() == B.upper();
}

bool sameLoop(const LoopBounds &A, const LoopBounds &B) {
  if (A.Index != B.Index || A.Affine != B.Affine || A.Step != B.Step)
    return false;
  return !A.Affine || (A.Lower == B.Lower && A.Upper == B.Upper);
}

void mixHash(size_t &H, size_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
}

void mixBound(size_t &H, std::optional<int64_t> B) {
  mixHash(H, B.has_value());
  mixHash(H, static_cast<size_t>(B.value_or(0)));
}

} // namespace

const AccessLoweringCache::LoweredPair &
AccessLoweringCache::lowerScratch(unsigned I, unsigned J) const {
  thread_local LoweredPair Scratch;
  Scratch.Failure.reset();
  try {
    lowerPair(I, J, Scratch);
  } catch (const AnalysisError &E) {
    Scratch.Failure = E.failure();
  }
  return Scratch;
}

void AccessLoweringCache::lowerPair(unsigned I, unsigned J,
                                    LoweredPair &Out) const {
  const ArrayAccess &A = Accesses[I];
  const ArrayAccess &B = Accesses[J];
  assert(A.Ref && B.Ref && "null access");
  assert(A.Ref->getArrayName() == B.Ref->getArrayName() &&
         "testing accesses to different arrays");
  Out.Subscripts.clear();
  Out.Extra.clear();
  Out.Ctx = nullptr;
  Out.HasNonlinear = false;
  Out.DimMismatch = A.Ref->getNumDims() != B.Ref->getNumDims();
  if (Out.DimMismatch)
    return;

  const LoweredAccess &LA = Lowered[I];
  const LoweredAccess &LB = Lowered[J];
  unsigned Depth = commonDepth(A, B);

  for (unsigned Dim = 0; Dim != A.Ref->getNumDims(); ++Dim) {
    std::optional<LinearExpr> Src =
        combineOverCommonNest(LA, Dim, Depth, "#src", Out.Extra);
    std::optional<LinearExpr> Dst =
        combineOverCommonNest(LB, Dim, Depth, "#snk", Out.Extra);
    if (!Src || !Dst) {
      Out.HasNonlinear = true;
      continue; // Contributes no information.
    }
    Out.Subscripts.emplace_back(std::move(*Src), std::move(*Dst), Dim);
  }

  // The pair context is the common nest under the build's symbols plus
  // the renamed ranges: one side's cached context outright when that is
  // all it is, else a view of its common prefix.
  if (Out.Extra.empty() && Depth == A.LoopStack.size())
    Out.Ctx = &LA.OwnCtx;
  else if (Out.Extra.empty() && Depth == B.LoopStack.size())
    Out.Ctx = &LB.OwnCtx;
  else {
    Out.View = LoopNestContext::prefixView(LA.OwnCtx, Depth, Out.Extra);
    Out.Ctx = &Out.View;
  }
}

std::optional<PreparedPair> AccessLoweringCache::preparePair(unsigned I,
                                                             unsigned J) const {
  LoweredPair Pair;
  lowerPair(I, J, Pair);
  if (Pair.DimMismatch)
    return std::nullopt;
  PreparedPair Prepared;
  Prepared.Subscripts = std::move(Pair.Subscripts);
  Prepared.HasNonlinear = Pair.HasNonlinear;
  for (const SubscriptPartition &P : partitionSubscripts(Prepared.Subscripts))
    if (!P.isSeparable())
      Prepared.HasCoupledGroup = true;
  // A copy is self-contained: the prepared pair may outlive the cache.
  Prepared.Ctx = *Pair.Ctx;
  return Prepared;
}

size_t AccessLoweringCache::hashContent(const LoweredPair &Pair) {
  size_t H = 0;
  for (const SubscriptPair &S : Pair.Subscripts) {
    mixHash(H, S.Src.hash());
    mixHash(H, S.Dst.hash());
    mixHash(H, S.Dim);
  }
  for (const LoopBounds &L : Pair.Ctx->loops()) {
    mixHash(H, std::hash<std::string>{}(L.Index));
    mixHash(H, L.Affine);
    if (L.Affine) {
      mixHash(H, L.Lower.hash());
      mixHash(H, L.Upper.hash());
    }
    mixHash(H, static_cast<size_t>(L.Step));
  }
  for (const auto &[Name, Range] : Pair.Ctx->overlay()) {
    mixHash(H, std::hash<std::string>{}(Name));
    mixBound(H, Range.lower());
    mixBound(H, Range.upper());
  }
  return H;
}

bool AccessLoweringCache::sameContent(const MemoKey &Key,
                                      const LoweredPair &Pair) {
  if (Key.Subscripts.size() != Pair.Subscripts.size())
    return false;
  for (size_t I = 0; I != Key.Subscripts.size(); ++I) {
    const SubscriptPair &A = Key.Subscripts[I], &B = Pair.Subscripts[I];
    if (A.Dim != B.Dim || A.Src != B.Src || A.Dst != B.Dst)
      return false;
  }
  std::span<const LoopBounds> Loops = Pair.Ctx->loops();
  if (!std::equal(Key.Loops.begin(), Key.Loops.end(), Loops.begin(),
                  Loops.end(), sameLoop))
    return false;
  const SymbolOverlay &Overlay = Pair.Ctx->overlay();
  return std::equal(Key.Overlay.begin(), Key.Overlay.end(), Overlay.begin(),
                    Overlay.end(), [](const auto &A, const auto &B) {
                      return A.first == B.first &&
                             sameBounds(A.second, B.second);
                    });
}

DependenceTestResult
AccessLoweringCache::memoizedTestDependence(const LoweredPair &Pair,
                                            TestStats *Stats) const {
  // Distinct access pairs frequently lower to identical content —
  // stencil programs repeat the same subscript shapes across
  // statements and nests — so key the testDependence call on the full
  // lowered content and run the algorithm once per distinct form.
  size_t Hash = hashContent(Pair);
  MemoShard &Shard = Memo[Hash % NumMemoShards];
  {
    std::lock_guard<std::mutex> Lock(Shard.M);
    auto [It, End] = Shard.Table.equal_range(Hash);
    for (; It != End; ++It) {
      if (!sameContent(It->second.Key, Pair))
        continue;
      // Replay the cached statistics delta so merged counters equal an
      // uncached run exactly (TestStats merging is additive).
      Metrics::count(Metric::MemoHits);
      if (Stats)
        Stats->merge(It->second.Delta);
      return It->second.Result;
    }
  }
  Metrics::count(Metric::MemoMisses);

  // Span and latency-sample only the miss path: a memo hit costs on
  // the order of the span bookkeeping itself, so instrumenting hits
  // would roughly double their cost (and the armed-overhead budget of
  // bench_x5 exists to forbid exactly that). Hits still count above.
  Span PairSpan("AccessLoweringCache::testPair", "cache");
  LatencyTimer PairLatency(Histo::PairTestNs);

  TestStats Delta;
  DependenceTestResult Result =
      testDependence(Pair.Subscripts, *Pair.Ctx, &Delta);
  if (Stats)
    Stats->merge(Delta);
  // Never memoize a degraded result: the failure may be transient
  // (injected fault, deadline) and must not poison later identical
  // pairs that would test cleanly.
  if (!Result.Degraded) {
    // The persistent-store routing counters describe *this* call's
    // trip to disk, not the content; replaying them on memo hits
    // (which never touch the store) would overcount.
    Delta.StoreHits = 0;
    Delta.StoreMisses = 0;
    std::span<const LoopBounds> Loops = Pair.Ctx->loops();
    MemoKey Key{Pair.Subscripts, {Loops.begin(), Loops.end()},
                Pair.Ctx->overlay()};
    std::lock_guard<std::mutex> Lock(Shard.M);
    // Another worker may have inserted the same content meanwhile;
    // keep the first entry.
    auto [It, End] = Shard.Table.equal_range(Hash);
    for (; It != End; ++It)
      if (sameContent(It->second.Key, Pair))
        return Result;
    Shard.Table.emplace(Hash, MemoizedResult{std::move(Key), Result,
                                             std::move(Delta)});
  }
  return Result;
}

DependenceTestResult AccessLoweringCache::testPair(unsigned I, unsigned J,
                                                   TestStats *Stats) const {
  return testLoweredPair(I, J, lowerScratch(I, J), Stats);
}

std::optional<DependenceTestResult>
AccessLoweringCache::routePair(unsigned I, unsigned J, size_t PairIdx,
                               PairBatchPlan *Plan, TestStats *Stats) const {
  const LoweredPair &Pair = lowerScratch(I, J);
  if (Plan) {
    if (planLoweredPair(I, J, PairIdx, Pair, *Plan))
      return std::nullopt;
    if (Stats)
      ++Stats->ScalarFallback;
  }
  return testLoweredPair(I, J, Pair, Stats);
}

DependenceTestResult
AccessLoweringCache::testLoweredPair(unsigned I, unsigned J,
                                     const LoweredPair &Pair,
                                     TestStats *Stats) const {
  Metrics::count(Metric::PairsTested);
  const ArrayAccess &A = Accesses[I];
  const ArrayAccess &B = Accesses[J];
  if (Stats) {
    ++Stats->ReferencePairs;
    unsigned Dims = std::min(A.Ref->getNumDims(), B.Ref->getNumDims());
    ++Stats->DimensionHistogram[std::min(Dims - 1, 3u)];
  }

  // Containment boundary: pair lowering itself can raise (overflow
  // while retagging coefficients, injected faults); degrade to the
  // conservative all-directions edge for this pair only.
  if (Pair.Failure)
    return degradedTestResult(commonLoops(A, B).size(), *Pair.Failure, Stats);
  try {
    // Mismatched dimensionality (legal Fortran through equivalence-style
    // tricks): treat conservatively.
    if (Pair.DimMismatch) {
      DependenceTestResult R;
      std::vector<const DoLoop *> Common = commonLoops(A, B);
      R.Vectors.assign(1, DependenceVector(Common.size()));
      return R;
    }
    if (Stats && Pair.HasNonlinear)
      Stats->NonlinearSubscripts +=
          A.Ref->getNumDims() - Pair.Subscripts.size();

    DependenceTestResult Result = memoizedTestDependence(Pair, Stats);
    Result.HasNonlinear = Pair.HasNonlinear;
    if (Pair.HasNonlinear && Result.TheVerdict == Verdict::Dependent)
      Result.TheVerdict = Verdict::Maybe;
    if (Pair.HasNonlinear)
      Result.Exact = false;
    if (Result.isIndependent()) {
      Metrics::count(Metric::PairsIndependent);
      if (Stats)
        ++Stats->IndependentPairs;
    }
    return Result;
  } catch (const AnalysisError &E) {
    return degradedTestResult(commonLoops(A, B).size(), E.failure(), Stats);
  }
}
