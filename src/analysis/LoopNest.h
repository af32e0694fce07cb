//===- analysis/LoopNest.h - Analyzed loop-nest context ---------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzed form of a loop nest that the dependence tests consume:
/// per-loop affine bounds, constant steps, and assumed value ranges for
/// symbolic constants. Bounds of inner loops may reference outer
/// indices (triangular and trapezoidal nests).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_ANALYSIS_LOOPNEST_H
#define PDT_ANALYSIS_LOOPNEST_H

#include "ir/LinearExpr.h"
#include "support/Interval.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdt {

class DoLoop;

/// Assumed integer ranges for symbolic constants, e.g. "n" -> [1, inf).
/// Symbols without an entry are unconstrained. The standard assumption
/// for array-extent symbols in scientific code is a lower bound of 1.
/// Lookups take any string-like key.
using SymbolRangeMap = std::map<std::string, Interval, std::less<>>;

/// Extra symbol ranges layered over a SymbolRangeMap, sorted by name
/// (the ranges of a pair's renamed "#src"/"#snk" indices).
using SymbolOverlay = std::vector<std::pair<std::string, Interval>>;

/// Analyzed bounds of one loop.
struct LoopBounds {
  std::string Index;
  /// Affine lower/upper bounds; may reference outer loop indices and
  /// symbolic constants. Meaningful only when Affine is true.
  LinearExpr Lower;
  LinearExpr Upper;
  /// Constant step. Tests other than range analysis require loops to
  /// have been normalized to step 1 first.
  int64_t Step = 1;
  /// False when a bound or the step failed to convert to affine form;
  /// the loop's index range is then unknown (conservative).
  bool Affine = true;
};

/// The loop-nest context shared by both references of a pair:
/// the common loops (outermost first), symbol assumptions, and the
/// computed maximal index ranges, stored by level beside the loops.
///
/// A context either owns its levels and symbols or borrows them: a
/// pair's context is a view of a prefix of a cached per-access context
/// plus a small overlay of renamed-index ranges, built without copying
/// any of them. Copies are always self-contained; moves keep what the
/// source borrowed.
class LoopNestContext {
public:
  LoopNestContext() = default;

  /// Builds the context for \p Loops (outermost first) under symbol
  /// assumptions \p Symbols, and runs index range analysis.
  LoopNestContext(const std::vector<const DoLoop *> &Loops,
                  SymbolRangeMap Symbols);

  /// Direct construction from pre-analyzed bounds (used by unit tests
  /// and the synthetic workload generator).
  LoopNestContext(std::vector<LoopBounds> Loops, SymbolRangeMap Symbols);

  /// Like the DoLoop constructor, but reading symbols from \p Symbols
  /// in place; the map must outlive the context and its moves.
  static LoopNestContext overSharedSymbols(
      const std::vector<const DoLoop *> &Loops, const SymbolRangeMap &Symbols);

  /// The outermost \p Depth levels of \p Base, under \p Base's symbols
  /// plus \p Extra (sorted by name, entries win over the base map).
  /// Equal to building the context for those loops under the merged
  /// map, whenever no bound mentions an overlaid name. \p Base and
  /// \p Extra must outlive the view.
  static LoopNestContext prefixView(const LoopNestContext &Base,
                                    unsigned Depth,
                                    const SymbolOverlay &Extra);

  LoopNestContext(const LoopNestContext &O);
  LoopNestContext(LoopNestContext &&O) noexcept;
  LoopNestContext &operator=(const LoopNestContext &O);
  LoopNestContext &operator=(LoopNestContext &&O) noexcept;

  unsigned depth() const { return Depth; }
  const LoopBounds &loop(unsigned Level) const { return Levels[Level]; }
  std::span<const LoopBounds> loops() const { return {Levels, Depth}; }

  /// Level of loop index \p Name (0 = outermost), or nullopt when the
  /// name is not a loop index of this nest.
  std::optional<unsigned> levelOf(std::string_view Name) const;

  bool isIndex(std::string_view Name) const {
    return levelOf(Name).has_value();
  }

  /// Maximal value range of index \p Name (paper section 4.3). Full
  /// interval when unknown.
  Interval indexRange(std::string_view Name) const;

  /// Range of the iteration-distance |i' - i| for loop \p Name:
  /// [0, U - L] when the range is finite, unbounded above otherwise
  /// (also when U - L does not fit in 64 bits).
  Interval distanceRange(std::string_view Name) const;

  /// The assumed range of symbol \p Name, or null when it is
  /// unconstrained.
  const Interval *symbolRange(std::string_view Name) const;

  /// The overlay entries, in name order (empty unless a view).
  const SymbolOverlay &overlay() const;

  /// Evaluates an affine expression over the computed index ranges and
  /// the symbol assumptions.
  Interval evaluate(const LinearExpr &E) const;

  /// The set of index names of this nest, for LinearExpr building.
  std::set<std::string> indexNameSet() const;

private:
  /// Owned storage; the views below point into it or elsewhere.
  std::vector<LoopBounds> OwnedLoops;
  std::vector<Interval> OwnedRanges;
  SymbolRangeMap OwnedSymbols;

  const LoopBounds *Levels = nullptr;
  const Interval *Ranges = nullptr;
  unsigned Depth = 0;
  const SymbolRangeMap *Symbols = &OwnedSymbols;
  const SymbolOverlay *Extra = nullptr;

  void buildLevels(const std::vector<const DoLoop *> &Loops);
  void computeIndexRanges();
  /// Range of the innermost level named \p Name among the outermost
  /// \p Levels levels.
  Interval rangeAmong(std::string_view Name, unsigned NumLevels) const;
  Interval evaluateOver(const LinearExpr &E, unsigned NumLevels) const;
  void takeFrom(LoopNestContext &&O);
};

} // namespace pdt

#endif // PDT_ANALYSIS_LOOPNEST_H
