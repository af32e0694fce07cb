//===- core/DependenceGraph.h - Program-level dependences -------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the dependence graph of a whole program: enumerates array
/// reference pairs, runs the partition-based tester on each, and
/// normalizes the surviving vectors into directed dependences (flow /
/// anti / output / input) with their carrier loops. This is the layer
/// loop transformations query (which loops are parallel, is
/// interchange legal, ...).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_DEPENDENCEGRAPH_H
#define PDT_CORE_DEPENDENCEGRAPH_H

#include "core/DependenceTester.h"
#include "core/DependenceTypes.h"
#include "core/TestStats.h"
#include "ir/AST.h"
#include "ir/AccessCollector.h"
#include "support/Budget.h"
#include "support/Failure.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pdt {

/// One directed dependence edge.
struct Dependence {
  /// Indices into the graph's access list.
  unsigned Source = 0;
  unsigned Sink = 0;
  DependenceKind Kind = DependenceKind::Flow;
  /// Normalized vector: the leading non-'=' direction (if any) is '<'.
  DependenceVector Vector;
  /// Loop carrying the dependence; null for loop-independent ones.
  const DoLoop *Carrier = nullptr;
  /// Level of the carrier in the common nest (0 = outermost).
  std::optional<unsigned> CarriedLevel;
  /// The verdict was exact (a dependence certainly exists).
  bool Exact = false;
  /// The edge comes from a contained failure or an exhausted resource
  /// budget: the pair was assumed dependent in all directions rather
  /// than tested to completion.
  bool Degraded = false;
  /// Why the edge degraded, when Degraded.
  std::optional<FailureKind> DegradedReason;

  bool isLoopIndependent() const { return Carrier == nullptr; }
};

/// The dependence graph of one program.
class DependenceGraph {
public:
  /// Runs dependence analysis over \p P. Read-read (input) dependences
  /// are skipped unless \p IncludeInput. \p Symbols provides assumed
  /// ranges for symbolic constants (e.g. {"n", [1, inf)}). Scalars
  /// assigned anywhere in \p P are detected and excluded from symbolic
  /// treatment automatically.
  ///
  /// Construction buckets accesses by array name (cross-array pairs
  /// are never enumerated), lowers every access once through an
  /// AccessLoweringCache, and splits the sorted pair list into one
  /// strided stripe per worker: \p NumThreads workers (0 = the
  /// PDT_THREADS environment variable, or hardware concurrency), run
  /// through ThreadPool::parallelFor, or inline on the calling thread
  /// when there is one. The result is deterministic: edges are emitted
  /// in the serial pair order and per-stripe statistics are merged
  /// into \p Stats, so every thread count produces byte-identical
  /// graphs and equal counters.
  ///
  /// \p Budget (optional) bounds the per-query resources: once the
  /// deadline expires or the pair cap is reached, remaining pairs are
  /// not tested and instead receive conservative all-directions edges
  /// flagged Degraded (budget-exhausted). Any failure raised while
  /// testing one pair likewise degrades only that pair's edges — the
  /// build itself never throws for analysis failures.
  static DependenceGraph build(const Program &P, const SymbolRangeMap &Symbols,
                               TestStats *Stats = nullptr,
                               bool IncludeInput = false,
                               unsigned NumThreads = 0,
                               const ResourceBudget *Budget = nullptr);

  const std::vector<ArrayAccess> &accesses() const { return Accesses; }
  const std::vector<Dependence> &dependences() const { return Edges; }

  /// True when no dependence is carried by \p Loop, i.e. its
  /// iterations may execute in parallel (ignoring scalar dependences,
  /// which our input language's analyses have already substituted
  /// away where possible). O(1): answered from the carrier index
  /// built during construction instead of rescanning all edges.
  bool isLoopParallel(const DoLoop *Loop) const;

  /// Number of edges carried by \p Loop.
  unsigned carriedEdgeCount(const DoLoop *Loop) const;

  /// All loops of the program, outermost first per nest.
  std::vector<const DoLoop *> allLoops() const;

  /// Human-readable report of every edge.
  std::string str() const;

private:
  const Program *Prog = nullptr;
  std::vector<ArrayAccess> Accesses;
  std::vector<Dependence> Edges;
  /// Carrier loop -> number of edges it carries, built once in
  /// build() so per-loop parallelism queries don't rescan all edges.
  std::unordered_map<const DoLoop *, unsigned> CarrierEdgeCount;
};

/// Splits one (possibly multi-direction) dependence vector into
/// carrier-normalized components: for each level at which the vector
/// admits a '<' (forward) or '>' (backward, reported as a reversed
/// forward dependence) after an all-'=' prefix, plus the all-'='
/// component when admitted. Exposed for unit testing.
struct OrientedVector {
  DependenceVector Vector; ///< Source-to-sink, leading direction '<'.
  bool Reversed = false;   ///< True: the sink is the textual source.
  std::optional<unsigned> CarriedLevel;
};
std::vector<OrientedVector> orientVectors(const DependenceVector &V);

/// The access pairs DependenceGraph::build tests and explainProgram
/// explains, as (I, J) indices into \p Accesses in ascending order:
/// accesses to one array with I <= J, skipping a read against itself
/// and, unless \p IncludeInput, read-read pairs.
std::vector<std::pair<unsigned, unsigned>>
enumerateAccessPairs(const std::vector<ArrayAccess> &Accesses,
                     bool IncludeInput);

} // namespace pdt

#endif // PDT_CORE_DEPENDENCEGRAPH_H
