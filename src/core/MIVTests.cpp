//===- core/MIVTests.cpp - GCD and Banerjee MIV tests ---------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MIVTests.h"

#include "core/Subscript.h"
#include "ir/LinearExpr.h"
#include "support/Failure.h"
#include "support/MathExtras.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace pdt;

//===----------------------------------------------------------------------===//
// GCD test
//===----------------------------------------------------------------------===//

MIVResult pdt::testGCD(const LinearExpr &Eq, const LoopNestContext &Ctx,
                       TestStats *Stats) {
  Span GCDSpan("MIVTests::testGCD", "miv", testKindTag(TestKind::GCD));
  (void)Ctx;
  MIVResult R;
  R.Test = TestKind::GCD;
  if (Eq.indexTerms().empty())
    return R; // Nothing to test; ZIV territory.
  if (Stats)
    Stats->noteApplication(TestKind::GCD);

  int64_t G = 0;
  for (const auto &[Name, Coeff] : Eq.indexTerms())
    G = gcd64(G, Coeff);
  assert(G != 0 && "index term with zero coefficient");

  // sum(a_k * v_k) = -(symbolic part + constant). When every symbol
  // coefficient is divisible by G, the right side is congruent to
  // -constant mod G for every symbol valuation, so the test still
  // applies; otherwise the symbolic part absorbs any residue and the
  // test is inconclusive.
  for (const auto &[Name, Coeff] : Eq.symbolTerms())
    if (!dividesExactly(Coeff, G))
      return R;
  if (!dividesExactly(Eq.getConstant(), G))
    R.TheVerdict = Verdict::Independent;
  return R;
}

//===----------------------------------------------------------------------===//
// Banerjee bounds
//===----------------------------------------------------------------------===//

namespace {

/// Bounds of a*x + b*y for integer x, y in \p Range under the given
/// direction relation between x (source) and y (sink). Returns the
/// empty interval when the relation is infeasible within the range.
Interval directedTermBounds(int64_t A, int64_t B, const Interval &Range,
                            DirectionSet Dir) {
  if (Range.isEmpty())
    return Interval::empty();

  // Unconstrained or mixed direction sets: bound over the full box.
  // (The hierarchy only ever asks for single directions or DirAll.)
  if (Dir != DirLT && Dir != DirEQ && Dir != DirGT)
    return Range.scale(A) + Range.scale(B);

  if (Dir == DirEQ) {
    std::optional<int64_t> Sum = checkedAdd(A, B);
    if (!Sum)
      raiseFailure(FailureKind::Overflow, "MIV coefficient overflow");
    return Range.scale(*Sum);
  }

  bool Less = Dir == DirLT;
  if (Range.isFinite()) {
    int64_t L = *Range.lower(), U = *Range.upper();
    if (U <= L)
      return Interval::empty(); // Needs two distinct iterations.
    // Linear objective on the triangle {L <= x, y <= U, x <= y-1}
    // (resp. y <= x-1): extrema lie at the vertices.
    struct PointXY {
      int64_t X, Y;
    };
    PointXY Vertices[3];
    if (Less) {
      Vertices[0] = {L, L + 1};
      Vertices[1] = {L, U};
      Vertices[2] = {U - 1, U};
    } else {
      Vertices[0] = {L + 1, L};
      Vertices[1] = {U, L};
      Vertices[2] = {U, U - 1};
    }
    int64_t Min = 0, Max = 0;
    for (unsigned I = 0; I != 3; ++I) {
      std::optional<int64_t> AX = checkedMul(A, Vertices[I].X);
      std::optional<int64_t> BY = checkedMul(B, Vertices[I].Y);
      std::optional<int64_t> Sum =
          AX && BY ? checkedAdd(*AX, *BY) : std::nullopt;
      if (!Sum)
        raiseFailure(FailureKind::Overflow, "MIV vertex bound overflow");
      int64_t V = *Sum;
      if (I == 0) {
        Min = Max = V;
      } else {
        Min = std::min(Min, V);
        Max = std::max(Max, V);
      }
    }
    return Interval(Min, Max);
  }

  // Partially unbounded range: x < y still pins x <= y - 1, which the
  // box bound ignores; tighten the one-sided cases where possible.
  // Conservative fallback: full box.
  return Range.scale(A) + Range.scale(B);
}

/// Per-level coefficient pair of the tagged equation.
struct LevelTerm {
  int64_t SrcCoeff = 0;  ///< Coefficient of i (source occurrence).
  int64_t SinkCoeff = 0; ///< Coefficient of i' (sink occurrence).
  bool present() const { return SrcCoeff != 0 || SinkCoeff != 0; }
};

/// Splits the equation's index terms by nest level. Terms whose base
/// index is not a level of the nest are treated as free symbols by the
/// caller (they cannot be direction-constrained).
std::vector<LevelTerm> levelTerms(const LinearExpr &Eq,
                                  const LoopNestContext &Ctx) {
  std::vector<LevelTerm> Terms(Ctx.depth());
  for (const auto &[Name, Coeff] : Eq.indexTerms()) {
    std::optional<unsigned> Level = Ctx.levelOf(baseName(Name));
    if (!Level)
      continue;
    if (isSinkName(Name))
      Terms[*Level].SinkCoeff = Coeff;
    else
      Terms[*Level].SrcCoeff = Coeff;
  }
  return Terms;
}

} // namespace

Interval pdt::banerjeeBounds(const LinearExpr &Eq, const LoopNestContext &Ctx,
                             const std::vector<DirectionSet> &Dirs) {
  assert(Dirs.size() == Ctx.depth() && "direction vector depth mismatch");
  Interval Total = Interval::point(Eq.getConstant());
  for (const auto &[Name, Coeff] : Eq.symbolTerms()) {
    const Interval *Range = Ctx.symbolRange(Name);
    Interval R = Range ? *Range : Interval::full();
    Total = Total + R.scale(Coeff);
  }

  std::vector<LevelTerm> Terms = levelTerms(Eq, Ctx);
  for (unsigned L = 0; L != Ctx.depth(); ++L) {
    Interval R = Ctx.indexRange(Ctx.loop(L).Index);
    if (!Terms[L].present()) {
      // The level only matters for feasibility of its direction.
      if (Dirs[L] == DirNone)
        return Interval::empty();
      if ((Dirs[L] == DirLT || Dirs[L] == DirGT)) {
        std::optional<int64_t> Size = R.size();
        if (Size && *Size < 2)
          return Interval::empty();
      }
      if (R.isEmpty())
        return Interval::empty();
      continue;
    }
    Interval T = directedTermBounds(Terms[L].SrcCoeff, Terms[L].SinkCoeff, R,
                                    Dirs[L]);
    if (T.isEmpty())
      return Interval::empty();
    Total = Total + T;
  }

  // Index variables that are not levels of this nest (e.g. indices of
  // loops enclosing only one reference were renamed to symbols before
  // testing; reaching here with one is a driver bug).
  for (const auto &[Name, Coeff] : Eq.indexTerms()) {
    if (!Ctx.levelOf(baseName(Name))) {
      Interval R = Ctx.indexRange(baseName(Name)); // Full interval.
      Total = Total + R.scale(Coeff);
    }
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Direction-vector hierarchy
//===----------------------------------------------------------------------===//

MIVResult pdt::testBanerjee(const LinearExpr &Eq, const LoopNestContext &Ctx,
                            TestStats *Stats) {
  Span BanerjeeSpan("MIVTests::testBanerjee", "miv",
                    testKindTag(TestKind::Banerjee));
  MIVResult R;
  R.Test = TestKind::Banerjee;
  if (Stats)
    Stats->noteApplication(TestKind::Banerjee);

  unsigned Depth = Ctx.depth();
  std::vector<DirectionSet> Dirs(Depth, DirAll);

  // Only levels whose index occurs in the equation are worth refining:
  // the others contribute nothing to the bounds and stay '*'.
  std::vector<LevelTerm> Terms = levelTerms(Eq, Ctx);
  std::vector<unsigned> RefineLevels;
  for (unsigned L = 0; L != Depth; ++L)
    if (Terms[L].present())
      RefineLevels.push_back(L);

  bool SawFeasible = false;
  std::vector<DependenceVector> Survivors;

  // Depth-first refinement: prune a subtree as soon as zero falls
  // outside the Banerjee bounds for its (partially refined) vector.
  auto Refine = [&](auto &&Self, unsigned Pos) -> void {
    Interval B = banerjeeBounds(Eq, Ctx, Dirs);
    if (B.isEmpty() || !B.contains(0))
      return;
    if (Pos == RefineLevels.size()) {
      SawFeasible = true;
      DependenceVector V(Depth);
      for (unsigned L = 0; L != Depth; ++L)
        V.Directions[L] = Dirs[L];
      Survivors.push_back(std::move(V));
      return;
    }
    unsigned Level = RefineLevels[Pos];
    for (DirectionSet D : {DirectionSet(DirLT), DirectionSet(DirEQ),
                           DirectionSet(DirGT)}) {
      Dirs[Level] = D;
      Self(Self, Pos + 1);
    }
    Dirs[Level] = DirAll;
  };
  Refine(Refine, 0);

  if (!SawFeasible) {
    R.TheVerdict = Verdict::Independent;
    return R;
  }
  R.Vectors = std::move(Survivors);
  R.TheVerdict = Verdict::Maybe; // Banerjee is conservative.
  return R;
}

MIVResult pdt::testMIV(const LinearExpr &Eq, const LoopNestContext &Ctx,
                       TestStats *Stats) {
  Span MIVSpan("MIVTests::testMIV", "miv");
  MIVResult G = testGCD(Eq, Ctx, Stats);
  if (G.TheVerdict == Verdict::Independent)
    return G;
  return testBanerjee(Eq, Ctx, Stats);
}
