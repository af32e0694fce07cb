//===- tests/core/MIVTestsTest.cpp ------------------------------------------===//
//
// Unit tests for the GCD test and Banerjee's inequalities with
// direction-vector refinement (paper section 4.4).
//
//===----------------------------------------------------------------------===//

#include "core/MIVTests.h"

#include "../TestHelpers.h"
#include "core/Subscript.h"
#include "support/Failure.h"
#include "support/MathExtras.h"

#include <gtest/gtest.h>

#include <random>

using namespace pdt;
using namespace pdt::test;

namespace {

LinearExpr idx(const char *N, int64_t C = 1) {
  return LinearExpr::index(N, C);
}

LinearExpr eq(const LinearExpr &Src, const LinearExpr &Dst) {
  return SubscriptPair(Src, Dst).equation();
}

} // namespace

//===----------------------------------------------------------------------===//
// GCD
//===----------------------------------------------------------------------===//

TEST(GCDTest, PaperExample) {
  // 2i - 2j' = 5: gcd 2 does not divide 5 (the section 5 example after
  // propagation).
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R = testGCD(
      eq(idx("i", 2) + idx("j", 2), idx("i", 2) + idx("j", 4) + LinearExpr(5)),
      Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Independent);
}

TEST(GCDTest, DivisibleIsMaybe) {
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R =
      testGCD(eq(idx("i", 2) + idx("j", 4), idx("j", 2) + LinearExpr(6)), Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Maybe);
}

TEST(GCDTest, SymbolWithDivisibleCoefficientStillApplies) {
  // 2i - 2j' + 2n + 1 = 0: residue 1 mod 2 regardless of n.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  LinearExpr Eq = eq(idx("i", 2) + LinearExpr::symbol("n", 2),
                     idx("j", 2) - LinearExpr(1));
  MIVResult R = testGCD(Eq, Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Independent);
}

TEST(GCDTest, SymbolWithIndivisibleCoefficientInconclusive) {
  // 2i - 2j' + n + 1 = 0: n can absorb any residue.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  LinearExpr Eq = eq(idx("i", 2) + LinearExpr::symbol("n"),
                     idx("j", 2) - LinearExpr(1));
  MIVResult R = testGCD(Eq, Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Maybe);
}

//===----------------------------------------------------------------------===//
// Banerjee bounds
//===----------------------------------------------------------------------===//

TEST(BanerjeeBounds, UnconstrainedBox) {
  // i - j' over i, j in [1, 10]: [-9, 9] under (*, *).
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  LinearExpr Eq = eq(idx("i"), idx("j"));
  Interval B = banerjeeBounds(Eq, Ctx, {DirAll, DirAll});
  EXPECT_EQ(B, Interval(-9, 9));
}

TEST(BanerjeeBounds, EqualDirectionCollapses) {
  // i - i' under '=': exactly 0.
  LoopNestContext Ctx = singleLoop("i", 1, 10);
  LinearExpr Eq = eq(idx("i"), idx("i"));
  Interval B = banerjeeBounds(Eq, Ctx, {DirEQ});
  EXPECT_EQ(B, Interval(0, 0));
}

TEST(BanerjeeBounds, LessDirectionTriangle) {
  // h = i - i' with i < i': h in [-9, -1] over [1, 10].
  LoopNestContext Ctx = singleLoop("i", 1, 10);
  LinearExpr Eq = eq(idx("i"), idx("i"));
  Interval B = banerjeeBounds(Eq, Ctx, {DirLT});
  EXPECT_EQ(B, Interval(-9, -1));
}

TEST(BanerjeeBounds, GreaterDirectionTriangle) {
  LoopNestContext Ctx = singleLoop("i", 1, 10);
  LinearExpr Eq = eq(idx("i"), idx("i"));
  Interval B = banerjeeBounds(Eq, Ctx, {DirGT});
  EXPECT_EQ(B, Interval(1, 9));
}

TEST(BanerjeeBounds, SingleIterationLoopForbidsStrictDirections) {
  LoopNestContext Ctx = singleLoop("i", 3, 3);
  LinearExpr Eq = eq(idx("i"), idx("i"));
  EXPECT_TRUE(banerjeeBounds(Eq, Ctx, {DirLT}).isEmpty());
  EXPECT_TRUE(banerjeeBounds(Eq, Ctx, {DirGT}).isEmpty());
  EXPECT_FALSE(banerjeeBounds(Eq, Ctx, {DirEQ}).isEmpty());
}

TEST(BanerjeeBounds, SymbolContribution) {
  LoopBounds B;
  B.Index = "i";
  B.Lower = LinearExpr(1);
  B.Upper = LinearExpr(10);
  SymbolRangeMap Symbols;
  Symbols["n"] = Interval(5, 7);
  LoopNestContext Ctx({B}, Symbols);
  // i - i' + n: under '=', [5, 7].
  LinearExpr Eq = eq(idx("i") + LinearExpr::symbol("n"), idx("i"));
  EXPECT_EQ(banerjeeBounds(Eq, Ctx, {DirEQ}), Interval(5, 7));
}

//===----------------------------------------------------------------------===//
// Banerjee direction hierarchy
//===----------------------------------------------------------------------===//

TEST(Banerjee, IndependenceByBounds) {
  // i + j' = 100 over [1,10]^2: max is 20 < 100... as an equation:
  // Src = i, Dst = -j + 100: i + j' - 100 = 0.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R = testBanerjee(
      eq(idx("i"), idx("j", -1) + LinearExpr(100)), Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Independent);
}

TEST(Banerjee, DirectionRefinement) {
  // i - i' - 2j' + 2 = 0 over i in [1,10], j in [1,10]: feasible, but
  // i' = i + 2 - 2j' <= i: the '<' direction on i is impossible
  // (2 - 2j' <= 0), so only '=' (j'=1) and '>' survive.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R = testBanerjee(
      eq(idx("i") + LinearExpr(2), idx("i") + idx("j", 2)), Ctx);
  ASSERT_EQ(R.TheVerdict, Verdict::Maybe);
  ASSERT_FALSE(R.Vectors.empty());
  DirectionSet SeenAtI = DirNone;
  for (const DependenceVector &V : R.Vectors)
    SeenAtI |= V.Directions[0];
  EXPECT_FALSE(SeenAtI & DirLT);
  EXPECT_TRUE(SeenAtI & (DirEQ | DirGT));
}

TEST(Banerjee, UntouchedLevelsStayStar) {
  // Equation only involves j; the i level stays '*'.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R = testBanerjee(
      eq(idx("j") + idx("i") - idx("i"), idx("j", 2)), Ctx);
  // Note: i cancels entirely, leaving j - 2j' = 0 (still "MIV" to
  // Banerjee if called directly).
  ASSERT_EQ(R.TheVerdict, Verdict::Maybe);
  for (const DependenceVector &V : R.Vectors)
    EXPECT_EQ(V.Directions[0], DirAll);
}

TEST(Banerjee, TriangularNestUsesMaximalRanges) {
  // Triangular nest: do i = 1, 10 / do j = 1, i. The j range is
  // [1, 10] maximal. Equation j - j' - 15 = 0 is infeasible.
  Program P = parseOrDie(R"(
do i = 1, 10
  do j = 1, i
    a(j) = a(j) + 1
  end do
end do
)");
  LoopNestContext Ctx(firstLoopPath(P), SymbolRangeMap());
  MIVResult R = testBanerjee(
      eq(idx("j") + LinearExpr(15), idx("j")), Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Independent);

  // j - j' - 5 = 0 is feasible in the maximal range.
  R = testBanerjee(eq(idx("j") + LinearExpr(5), idx("j")), Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Maybe);
}

TEST(Banerjee, MIVStrategyGCDFirst) {
  // testMIV runs GCD before Banerjee: parity disproof wins even though
  // Banerjee bounds are feasible.
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  MIVResult R = testMIV(
      eq(idx("i", 2) + idx("j", 2), idx("i", 2) + idx("j", 4) + LinearExpr(1)),
      Ctx);
  EXPECT_EQ(R.TheVerdict, Verdict::Independent);
  EXPECT_EQ(R.Test, TestKind::GCD);
}

TEST(Banerjee, StatsCounted) {
  TestStats Stats;
  LoopNestContext Ctx = doubleLoop("i", 1, 10, "j", 1, 10);
  testMIV(eq(idx("i") + idx("j"), idx("i")), Ctx, &Stats);
  EXPECT_EQ(Stats.applications(TestKind::GCD), 1u);
  EXPECT_EQ(Stats.applications(TestKind::Banerjee), 1u);
}

//===----------------------------------------------------------------------===//
// Randomized comparison against per-node recomputation
//===----------------------------------------------------------------------===//

namespace {

/// The reference model: Banerjee bounds recomputed from scratch at
/// every node of the direction hierarchy, as the library computed them
/// before it shared the direction-independent part and each
/// (level, direction) term bound across the nodes of one call.
namespace ref {

Interval directedTermBounds(int64_t A, int64_t B, const Interval &Range,
                            DirectionSet Dir) {
  if (Range.isEmpty())
    return Interval::empty();
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
      return Interval::empty();
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
      Min = I == 0 ? *Sum : std::min(Min, *Sum);
      Max = I == 0 ? *Sum : std::max(Max, *Sum);
    }
    return Interval(Min, Max);
  }
  return Range.scale(A) + Range.scale(B);
}

struct LevelTerm {
  int64_t SrcCoeff = 0;
  int64_t SinkCoeff = 0;
  bool present() const { return SrcCoeff != 0 || SinkCoeff != 0; }
};

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

Interval bounds(const LinearExpr &Eq, const LoopNestContext &Ctx,
                const std::vector<DirectionSet> &Dirs) {
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
      if (Dirs[L] == DirNone)
        return Interval::empty();
      if (Dirs[L] == DirLT || Dirs[L] == DirGT) {
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
  for (const auto &[Name, Coeff] : Eq.indexTerms())
    if (!Ctx.levelOf(baseName(Name)))
      Total = Total + Ctx.indexRange(baseName(Name)).scale(Coeff);
  return Total;
}

/// The surviving direction vectors, or nullopt when none survives.
std::optional<std::vector<std::vector<DirectionSet>>>
hierarchy(const LinearExpr &Eq, const LoopNestContext &Ctx) {
  std::vector<DirectionSet> Dirs(Ctx.depth(), DirAll);
  std::vector<LevelTerm> Terms = levelTerms(Eq, Ctx);
  std::vector<unsigned> RefineLevels;
  for (unsigned L = 0; L != Ctx.depth(); ++L)
    if (Terms[L].present())
      RefineLevels.push_back(L);
  std::vector<std::vector<DirectionSet>> Survivors;
  auto Refine = [&](auto &&Self, unsigned Pos) -> void {
    Interval B = bounds(Eq, Ctx, Dirs);
    if (B.isEmpty() || !B.contains(0))
      return;
    if (Pos == RefineLevels.size()) {
      Survivors.push_back(Dirs);
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
  if (Survivors.empty())
    return std::nullopt;
  return Survivors;
}

} // namespace ref

/// Runs \p F, reporting whether it raised an AnalysisError and of which
/// kind.
template <typename F> std::optional<FailureKind> raised(F &&Fn) {
  try {
    Fn();
  } catch (const AnalysisError &E) {
    return E.kind();
  }
  return std::nullopt;
}

/// A value drawn from small, medium, and near-INT64-limit ranges.
int64_t drawValue(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<int> Pick(0, 9);
  std::uniform_int_distribution<int64_t> Small(-12, 12),
      Medium(-1000000, 1000000), Offset(0, 3);
  switch (Pick(Rng)) {
  case 0:
    return INT64_MAX - Offset(Rng);
  case 1:
    return INT64_MIN + Offset(Rng);
  case 2:
    return (int64_t(1) << 62) + Small(Rng);
  case 3:
    return -(int64_t(1) << 62) + Small(Rng);
  case 4:
    return Medium(Rng);
  default:
    return Small(Rng);
  }
}

bool sameInterval(const Interval &A, const Interval &B) {
  return A.lower() == B.lower() && A.upper() == B.upper();
}

} // namespace

TEST(Banerjee, RandomizedMatchesPerNodeRecomputation) {
  std::mt19937_64 Rng(0xBA4E47EE);
  std::uniform_int_distribution<int> Coin(0, 1), Die(0, 5), Dir(0, 7);
  const char *Names[] = {"i", "j", "k", "l"};
  unsigned Raised = 0, Independent = 0, Dependent = 0;
  for (unsigned Case = 0; Case != 4000; ++Case) {
    // A nest of depth 1-4: constant, symbolic or triangular bounds.
    unsigned Depth = 1 + Case % 4;
    std::vector<LoopBounds> Loops;
    for (unsigned L = 0; L != Depth; ++L) {
      LoopBounds B;
      B.Index = Names[L];
      int64_t Lo = Die(Rng) < 4 ? Die(Rng) - 2 : drawValue(Rng);
      B.Lower = LinearExpr(Lo);
      switch (Die(Rng)) {
      case 0:
        B.Upper = LinearExpr::symbol("n");
        break;
      case 1:
        B.Upper = L ? LinearExpr::index(Names[L - 1])
                    : LinearExpr(checkedAdd(Lo, 3).value_or(INT64_MAX));
        break;
      case 2:
        B.Upper = LinearExpr(drawValue(Rng));
        break;
      default:
        B.Upper =
            LinearExpr(checkedAdd(Lo, Die(Rng) * 4).value_or(INT64_MAX));
        break;
      }
      Loops.push_back(B);
    }
    SymbolRangeMap Symbols;
    if (Coin(Rng))
      Symbols.try_emplace("n", Interval(1, std::nullopt));
    else
      Symbols.try_emplace("n", Interval(1, drawValue(Rng)));
    if (Coin(Rng))
      Symbols.try_emplace("m", Interval(drawValue(Rng), drawValue(Rng)));
    LoopNestContext Ctx(std::move(Loops), std::move(Symbols));

    // A tagged equation over some of the levels, with symbolic terms
    // and, rarely, an index outside the nest.
    LinearExpr Eq(drawValue(Rng));
    for (unsigned L = 0; L != Depth; ++L) {
      if (Die(Rng) < 4)
        Eq = Eq + LinearExpr::index(Names[L], drawValue(Rng));
      if (Die(Rng) < 4)
        Eq = Eq + LinearExpr::index(sinkName(Names[L]), drawValue(Rng));
    }
    if (Coin(Rng))
      Eq = Eq + LinearExpr::symbol("n", drawValue(Rng));
    if (Die(Rng) == 0)
      Eq = Eq + LinearExpr::symbol("m", drawValue(Rng));
    if (Die(Rng) == 0 && Coin(Rng))
      Eq = Eq + LinearExpr::index("z", drawValue(Rng));

    SCOPED_TRACE("case " + std::to_string(Case) + ": " + Eq.str() + " = 0");
    MIVResult Got;
    std::optional<std::vector<std::vector<DirectionSet>>> Want;
    std::optional<FailureKind> GotRaise =
        raised([&] { Got = testBanerjee(Eq, Ctx); });
    std::optional<FailureKind> WantRaise =
        raised([&] { Want = ref::hierarchy(Eq, Ctx); });
    ASSERT_EQ(GotRaise, WantRaise);
    if (GotRaise) {
      ++Raised;
    } else if (!Want) {
      ++Independent;
      EXPECT_EQ(Got.TheVerdict, Verdict::Independent);
    } else {
      ++Dependent;
      EXPECT_EQ(Got.TheVerdict, Verdict::Maybe);
      ASSERT_EQ(Got.Vectors.size(), Want->size());
      for (size_t V = 0; V != Want->size(); ++V) {
        const DependenceVector &G = Got.Vectors[V];
        ASSERT_EQ(G.depth(), Depth);
        for (unsigned L = 0; L != Depth; ++L) {
          EXPECT_EQ(G.Directions[L], (*Want)[V][L]);
          EXPECT_FALSE(G.Distances[L].has_value());
        }
      }
    }

    // The bounds under random hypotheses, mixed direction sets included.
    for (unsigned Probe = 0; Probe != 6; ++Probe) {
      std::vector<DirectionSet> Dirs(Depth);
      for (DirectionSet &D : Dirs)
        D = static_cast<DirectionSet>(Dir(Rng));
      Interval GotB, WantB;
      std::optional<FailureKind> GotBRaise =
          raised([&] { GotB = banerjeeBounds(Eq, Ctx, Dirs); });
      std::optional<FailureKind> WantBRaise =
          raised([&] { WantB = ref::bounds(Eq, Ctx, Dirs); });
      ASSERT_EQ(GotBRaise, WantBRaise);
      if (!GotBRaise) {
        EXPECT_TRUE(sameInterval(GotB, WantB))
            << GotB.str() << " vs " << WantB.str();
      }
    }
  }
  // Every outcome is exercised.
  EXPECT_GT(Raised, 100u);
  EXPECT_GT(Independent, 100u);
  EXPECT_GT(Dependent, 100u);
}
