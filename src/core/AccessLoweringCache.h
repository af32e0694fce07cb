//===- core/AccessLoweringCache.h - Per-access lowering cache ---*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-access half of pair preparation, hoisted out of the O(n^2)
/// pair loop. For each array access the cache precomputes, once:
///
///   * the affine form of every subscript dimension over the access's
///     own loop indices (nullopt when nonlinear or when it mentions a
///     varying scalar), and
///   * the analyzed context of the access's own loop nest, whose index
///     ranges bound the fresh "#src"/"#snk" symbols that stand in for
///     non-common indices.
///
/// preparePair then reduces to a cheap combination step: intersect the
/// two loop stacks, retag non-common index terms as ranged symbols,
/// and view the common prefix of one side's cached context. The result is bit-for-bit identical to
/// what prepareAccessPair computes from scratch (the golden and
/// determinism tests pin this down).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_ACCESSLOWERINGCACHE_H
#define PDT_CORE_ACCESSLOWERINGCACHE_H

#include "analysis/LoopNest.h"
#include "core/DependenceTester.h"
#include "ir/AccessCollector.h"
#include "ir/LinearExpr.h"

#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace pdt {

struct PairBatchPlan;

/// The pair-independent lowering of one array access.
struct LoweredAccess {
  /// Affine form of each subscript dimension over the access's own
  /// loop indices; nullopt marks a nonlinear (untestable) dimension.
  std::vector<std::optional<LinearExpr>> Dims;
  /// Analyzed context of the access's own loop stack, over the cache's
  /// symbol map. A pair's context is a view of its common prefix (plus
  /// the ranges of renamed non-common indices), or this context itself
  /// when the common nest is the whole stack and nothing was renamed.
  LoopNestContext OwnCtx;
};

class AccessLoweringCache {
public:
  /// Lowers every access of \p Accesses under symbol assumptions
  /// \p Symbols. \p VaryingScalars (may be null) names scalars whose
  /// mention makes a subscript nonlinear. The accesses vector must
  /// outlive the cache.
  AccessLoweringCache(const std::vector<ArrayAccess> &Accesses,
                      const SymbolRangeMap &Symbols,
                      const std::set<std::string> *VaryingScalars);
  ~AccessLoweringCache();
  /// The cached contexts point at this object's symbol map.
  AccessLoweringCache(const AccessLoweringCache &) = delete;
  AccessLoweringCache &operator=(const AccessLoweringCache &) = delete;

  /// Classifies the pair's subscripts and, when every dimension is a
  /// batchable constant-difference ZIV or separable strong SIV,
  /// appends its entries and a PairRecord (tagged \p PairIdx) to
  /// \p Plan. Returns false — leaving \p Plan untouched — when any
  /// dimension needs the scalar path. Thread-safe for distinct plans.
  bool planBatchedPair(unsigned I, unsigned J, size_t PairIdx,
                       PairBatchPlan &Plan) const;

  /// Lowers the pair once and, given a \p Plan, appends it there as
  /// planBatchedPair would (returning std::nullopt); else — no plan, or
  /// the planner rejects it, counting one ScalarFallback — returns
  /// testPair's result from that same lowering. Thread-safe per plan.
  std::optional<DependenceTestResult> routePair(unsigned I, unsigned J,
                                                size_t PairIdx,
                                                PairBatchPlan *Plan,
                                                TestStats *Stats) const;

  /// Combines the cached forms of accesses \p I and \p J into the same
  /// PreparedPair prepareAccessPair(Accesses[I], Accesses[J], ...)
  /// would build. Returns std::nullopt when the references have
  /// different dimensionality. Thread-safe (const).
  std::optional<PreparedPair> preparePair(unsigned I, unsigned J) const;

  /// Tests accesses \p I and \p J, combining the cached forms without
  /// materializing a PreparedPair: in the dominant same-nest case the
  /// pair borrows the cached per-access context instead of copying it.
  /// Produces exactly testAccessPair's result and statistics.
  /// Thread-safe (const).
  DependenceTestResult testPair(unsigned I, unsigned J,
                                TestStats *Stats = nullptr) const;

private:
  /// Lowers one access into its Lowered entry; the constructor calls
  /// it once per access.
  void lowerAccess(unsigned Access,
                   const std::set<std::string> *VaryingScalars);

  /// One pair lowered for testing: its subscripts and its context,
  /// either a cached per-access context or View, a view of one over
  /// Extra. The pair paths lower pair after pair into one per-thread
  /// instance (lowerScratch), so its buffers are reused and
  /// steady-state lowering allocates nothing.
  struct LoweredPair {
    LoweredPair() = default;
    // View points at Extra.
    LoweredPair(const LoweredPair &) = delete;
    LoweredPair &operator=(const LoweredPair &) = delete;

    std::vector<SubscriptPair> Subscripts;
    SymbolOverlay Extra;
    LoopNestContext View;
    const LoopNestContext *Ctx = nullptr;
    bool HasNonlinear = false;
    /// References had different dimensionality; nothing was lowered.
    bool DimMismatch = false;
    /// Lowering raised; the other members are not valid.
    std::optional<AnalysisFailure> Failure;
  };
  /// Lowers accesses \p I and \p J into \p Out, replacing its content.
  void lowerPair(unsigned I, unsigned J, LoweredPair &Out) const;
  /// Lowers accesses \p I and \p J into the calling thread's reusable
  /// LoweredPair, recording an AnalysisError in its Failure.
  const LoweredPair &lowerScratch(unsigned I, unsigned J) const;

  /// The halves after lowering: planBatchedPair's and testPair's.
  bool planLoweredPair(unsigned I, unsigned J, size_t PairIdx,
                       const LoweredPair &Pair, PairBatchPlan &Plan) const;
  DependenceTestResult testLoweredPair(unsigned I, unsigned J,
                                       const LoweredPair &Pair,
                                       TestStats *Stats) const;

  /// testDependence keyed by the pair's lowered content, with the
  /// cached statistics delta replayed into \p Stats on hits.
  DependenceTestResult memoizedTestDependence(const LoweredPair &Pair,
                                              TestStats *Stats) const;

  /// The memo key: everything testDependence reads except the symbol
  /// map, which is the same for every pair of one cache.
  struct MemoKey {
    std::vector<SubscriptPair> Subscripts;
    std::vector<LoopBounds> Loops;
    SymbolOverlay Overlay;
  };
  static size_t hashContent(const LoweredPair &Pair);
  static bool sameContent(const MemoKey &Key, const LoweredPair &Pair);

  const std::vector<ArrayAccess> &Accesses;
  SymbolRangeMap Symbols;
  std::vector<LoweredAccess> Lowered;

  /// Memoized testDependence results. Distinct access pairs often
  /// lower to identical (subscripts, context) content — stencil
  /// programs repeat the same shapes across statements and nests — so
  /// the algorithm runs once per distinct lowered form. The cached
  /// statistics delta is replayed into the caller's sink on every hit,
  /// keeping merged counters exactly equal to an uncached run
  /// (TestStats merging is additive). Sharded by key hash to keep
  /// worker contention low.
  struct MemoizedResult {
    MemoKey Key;
    DependenceTestResult Result;
    TestStats Delta;
  };
  struct MemoShard;
  static constexpr unsigned NumMemoShards = 16;
  std::unique_ptr<MemoShard[]> Memo;
};

} // namespace pdt

#endif // PDT_CORE_ACCESSLOWERINGCACHE_H
