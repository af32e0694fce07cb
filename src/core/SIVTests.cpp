//===- core/SIVTests.cpp - ZIV and exact SIV/RDIV tests -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/SIVTests.h"

#include "support/ErrorHandling.h"
#include "support/Failure.h"
#include "support/FaultInjector.h"
#include "support/MathExtras.h"
#include "support/Trace.h"

#include <cassert>

using namespace pdt;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// The loop-invariant part of a tagged equation (symbols + constant).
static LinearExpr invariantPart(const LinearExpr &Eq) {
  LinearExpr R(Eq.getConstant());
  for (const auto &[Name, Coeff] : Eq.symbolTerms())
    R = R + LinearExpr::symbol(Name, Coeff);
  return R;
}

/// Value range of a (possibly sink-tagged) equation variable.
static Interval varRange(const LoopNestContext &Ctx, std::string_view Var) {
  return Ctx.indexRange(baseName(Var));
}

/// Value range of a whole tagged equation: sink-tagged index names
/// draw the base index's range (LoopNestContext::evaluate would treat
/// "i'" as an unknown and return the full line).
static Interval evaluateEquation(const LoopNestContext &Ctx,
                                 const LinearExpr &Eq) {
  Interval Total = Interval::point(Eq.getConstant());
  for (const auto &[Name, Coeff] : Eq.symbolTerms()) {
    const Interval *Range = Ctx.symbolRange(Name);
    Interval R = Range ? *Range : Interval::full();
    Total = Total + R.scale(Coeff);
  }
  for (const auto &[Name, Coeff] : Eq.indexTerms())
    Total = Total + varRange(Ctx, Name).scale(Coeff);
  return Total;
}

/// S < 2 * B and S > 2 * B, exact even where 2 * B leaves int64: a
/// doubled bound that overflows lies beyond every int64 S on the side
/// of B's sign.
static bool belowTwice(int64_t S, int64_t B) {
  std::optional<int64_t> Twice = checkedMul(2, B);
  return Twice ? S < *Twice : B > 0;
}
static bool aboveTwice(int64_t S, int64_t B) {
  std::optional<int64_t> Twice = checkedMul(2, B);
  return Twice ? S > *Twice : B < 0;
}

/// Can the (non-empty) interval contain a positive / zero / negative
/// value? Unknown endpoints mean "possibly".
static bool canBePositive(const Interval &I) {
  return !I.upper() || *I.upper() > 0;
}
static bool canBeNegative(const Interval &I) {
  return !I.lower() || *I.lower() < 0;
}
static bool canBeZero(const Interval &I) { return I.contains(0); }

/// Is the integer \p V certainly inside / certainly outside \p R?
/// Unknown endpoints can only produce Maybe.
static Verdict membershipVerdict(const Interval &R, int64_t V) {
  if (R.isEmpty())
    return Verdict::Independent;
  if ((R.lower() && V < *R.lower()) || (R.upper() && V > *R.upper()))
    return Verdict::Independent;
  if (R.isFinite())
    return Verdict::Dependent;
  return Verdict::Maybe;
}

/// Integer values d with Divisor * d inside \p Values (the set of
/// feasible right-hand sides). Empty when no multiple fits.
static Interval divideRange(const Interval &Values, int64_t Divisor) {
  assert(Divisor != 0 && "dividing range by zero");
  if (Values.isEmpty())
    return Interval::empty();
  Bound Lo = Values.lower(), Hi = Values.upper();
  if (Divisor < 0) {
    // Flip so the divisor is positive: d in [lo/D, hi/D] swaps ends.
    Bound NewLo, NewHi;
    if (Hi)
      NewLo = -*Hi;
    if (Lo)
      NewHi = -*Lo;
    Lo = NewLo;
    Hi = NewHi;
    Divisor = -Divisor;
  }
  Bound DLo, DHi;
  if (Lo)
    DLo = ceilDiv(*Lo, Divisor);
  if (Hi)
    DHi = floorDiv(*Hi, Divisor);
  return Interval(DLo, DHi);
}

//===----------------------------------------------------------------------===//
// ZIV test (section 4.1)
//===----------------------------------------------------------------------===//

SIVResult pdt::testZIV(const LinearExpr &Eq, const LoopNestContext &Ctx,
                       TestStats *Stats) {
  Span ZIVSpan("SIVTests::testZIV", "siv", testKindTag(TestKind::ZIV));
  assert(Eq.numIndices() == 0 && "ZIV test on an equation with indices");
  SIVResult R;
  if (Eq.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::ZIV);
    R.Test = TestKind::ZIV;
    R.Exact = true;
    R.TheVerdict =
        Eq.getConstant() == 0 ? Verdict::Dependent : Verdict::Independent;
    return R;
  }
  // Symbolic extension: the difference disproves dependence when it is
  // provably non-zero under the symbol range assumptions.
  if (Stats)
    Stats->noteApplication(TestKind::SymbolicZIV);
  R.Test = TestKind::SymbolicZIV;
  Interval V = Ctx.evaluate(Eq);
  if (!canBeZero(V)) {
    R.TheVerdict = Verdict::Independent;
    R.Exact = true;
  } else if (V.isPoint()) {
    R.TheVerdict = Verdict::Dependent;
    R.Exact = true;
  } else {
    R.TheVerdict = Verdict::Maybe;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Two-variable Diophantine engine (exact SIV / RDIV core)
//===----------------------------------------------------------------------===//

namespace {

/// Integer range of the free parameter t for solutions
/// x = X0 + XStep * t constrained to \p Range. Accumulates into
/// [TLo, THi] (nullopt = unbounded on that side). Returns false when
/// the constraint is certainly unsatisfiable.
/// Bound - X0 without UB: the subtraction must not wrap and the
/// subsequent division must not be INT64_MIN / -1 (the one overflowing
/// idiv). Near-INT64_MAX particular solutions arise from adversarial
/// subscripts, so degrade rather than crash.
int64_t parameterRhs(int64_t Bound, int64_t X0, int64_t XStep) {
  std::optional<int64_t> Rhs = checkedSub(Bound, X0);
  if (!Rhs || (*Rhs == INT64_MIN && XStep == -1))
    raiseFailure(FailureKind::Overflow, "diophantine parameter bound overflow");
  return *Rhs;
}

bool applyParameterBounds(int64_t X0, int64_t XStep, const Interval &Range,
                          Bound &TLo, Bound &THi) {
  if (Range.isEmpty())
    return false;
  assert(XStep != 0 && "parameter with zero step handled by caller");
  // X0 + XStep*t >= Lo  and  X0 + XStep*t <= Hi.
  if (Range.lower()) {
    int64_t Rhs = parameterRhs(*Range.lower(), X0, XStep);
    if (XStep > 0) {
      int64_t T = ceilDiv(Rhs, XStep);
      if (!TLo || T > *TLo)
        TLo = T;
    } else {
      int64_t T = floorDiv(Rhs, XStep);
      if (!THi || T < *THi)
        THi = T;
    }
  }
  if (Range.upper()) {
    int64_t Rhs = parameterRhs(*Range.upper(), X0, XStep);
    if (XStep > 0) {
      int64_t T = floorDiv(Rhs, XStep);
      if (!THi || T < *THi)
        THi = T;
    } else {
      int64_t T = ceilDiv(Rhs, XStep);
      if (!TLo || T > *TLo)
        TLo = T;
    }
  }
  return true;
}

/// Solution description for A*x + B*y + C = 0 with A, B != 0.
struct DiophantineSolution {
  bool Solvable = false; ///< gcd divides the constant.
  int64_t X0 = 0, Y0 = 0;
  int64_t XStep = 0, YStep = 0; ///< x = X0 + XStep*t, y = Y0 + YStep*t.
};

DiophantineSolution solveDiophantine(int64_t A, int64_t B, int64_t C) {
  FaultInjector::checkpoint();
  DiophantineSolution S;
  ExtendedGCDResult E = extendedGCD(A, B);
  assert(E.Gcd != 0 && "both coefficients zero");
  // -C and -(A/Gcd) below must not negate INT64_MIN (UB); such
  // coefficients only arise from adversarial input, so degrade.
  if (C == INT64_MIN || A == INT64_MIN)
    raiseFailure(FailureKind::Overflow, "diophantine coefficient overflow");
  if (!dividesExactly(-C, E.Gcd))
    return S;
  int64_t Scale = -C / E.Gcd;
  S.Solvable = true;
  // A*(u*Scale) + B*(v*Scale) = -C.
  std::optional<int64_t> X0 = checkedMul(E.CoeffA, Scale);
  std::optional<int64_t> Y0 = checkedMul(E.CoeffB, Scale);
  if (!X0 || !Y0)
    raiseFailure(FailureKind::Overflow,
                 "diophantine particular solution overflow");
  S.X0 = *X0;
  S.Y0 = *Y0;
  S.XStep = B / E.Gcd;
  S.YStep = -(A / E.Gcd);
  return S;
}

} // namespace

Verdict pdt::solveTwoVariableEquation(int64_t A, const Interval &XRange,
                                      int64_t B, const Interval &YRange,
                                      int64_t C) {
  if (XRange.isEmpty() || YRange.isEmpty())
    return Verdict::Independent;
  if (A == 0 && B == 0)
    return C == 0 ? Verdict::Dependent : Verdict::Independent;
  // -C below must not negate INT64_MIN (UB): degrade conservatively.
  if (C == INT64_MIN)
    raiseFailure(FailureKind::Overflow, "SIV constant overflow");
  if (A == 0) {
    if (!dividesExactly(-C, B))
      return Verdict::Independent;
    Verdict V = membershipVerdict(YRange, -C / B);
    if (V == Verdict::Dependent && !XRange.isFinite())
      return Verdict::Maybe; // x exists only if its loop iterates.
    return V;
  }
  if (B == 0) {
    if (!dividesExactly(-C, A))
      return Verdict::Independent;
    Verdict V = membershipVerdict(XRange, -C / A);
    if (V == Verdict::Dependent && !YRange.isFinite())
      return Verdict::Maybe;
    return V;
  }

  DiophantineSolution S = solveDiophantine(A, B, C);
  if (!S.Solvable)
    return Verdict::Independent;
  Bound TLo, THi;
  if (!applyParameterBounds(S.X0, S.XStep, XRange, TLo, THi) ||
      !applyParameterBounds(S.Y0, S.YStep, YRange, TLo, THi))
    return Verdict::Independent;
  if (TLo && THi && *TLo > *THi)
    return Verdict::Independent;
  if (TLo && THi && XRange.isFinite() && YRange.isFinite())
    return Verdict::Dependent;
  return Verdict::Maybe;
}

//===----------------------------------------------------------------------===//
// SIV tests (section 4.2)
//===----------------------------------------------------------------------===//

namespace {

/// Strong SIV test: equation a*i - a*i' + C = 0, i.e. the distance
/// d = i' - i equals C / a. Exact (section 4.2.1).
SIVResult testStrongSIV(const LinearExpr &Eq, std::string_view Index,
                        int64_t A, const LoopNestContext &Ctx,
                        TestStats *Stats) {
  Span StrongSpan("SIVTests::testStrongSIV", "siv",
                  testKindTag(TestKind::StrongSIV));
  SIVResult R;
  R.Index = Index;
  LinearExpr C = invariantPart(Eq);
  Interval DistRange = Ctx.distanceRange(Index);

  if (C.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::StrongSIV);
    R.Test = TestKind::StrongSIV;
    if (!dividesExactly(C.getConstant(), A))
      return SIVResult::independent(TestKind::StrongSIV);
    int64_t D = C.getConstant() / A;
    if (DistRange.isEmpty())
      return SIVResult::independent(TestKind::StrongSIV);
    if (DistRange.upper()) {
      // |d| must not exceed U - L. D == INT64_MIN needs care: -D would
      // overflow, and |D| = 2^63 exceeds every int64 upper bound.
      int64_t AbsD = D == INT64_MIN ? INT64_MAX : (D < 0 ? -D : D);
      if (D == INT64_MIN || AbsD > *DistRange.upper())
        return SIVResult::independent(TestKind::StrongSIV);
    }
    R.Distance = D;
    R.Directions = directionForDistance(D);
    R.IndexConstraint = Constraint::distance(D);
    R.Exact = DistRange.isFinite();
    R.TheVerdict = R.Exact ? Verdict::Dependent : Verdict::Maybe;
    return R;
  }

  // Symbolic additive constants (section 4.5): bound the feasible
  // integer distances d with A*d in range(C).
  if (Stats)
    Stats->noteApplication(TestKind::SymbolicSIV);
  R.Test = TestKind::SymbolicSIV;
  Interval DCandidates = divideRange(Ctx.evaluate(C), A);
  // Feasible distances also satisfy |d| <= U - L.
  Interval Feasible = DistRange.isEmpty()
                          ? Interval::empty()
                          : Interval(DistRange.upper()
                                         ? Bound(-*DistRange.upper())
                                         : Bound(),
                                     DistRange.upper());
  Interval D = DCandidates.intersect(Feasible);
  if (D.isEmpty())
    return SIVResult::independent(TestKind::SymbolicSIV);
  DirectionSet Dirs = DirNone;
  if (canBePositive(D))
    Dirs |= DirLT;
  if (canBeZero(D))
    Dirs |= DirEQ;
  if (canBeNegative(D))
    Dirs |= DirGT;
  R.Directions = Dirs;
  if (D.isPoint()) {
    R.Distance = *D.lower();
    R.IndexConstraint = Constraint::distance(*D.lower());
  }
  R.TheVerdict = Verdict::Maybe;
  return R;
}

/// Weak-zero SIV test: equation a*v + C = 0 for a single variable
/// occurrence v (source or sink); the dependence can involve only
/// iteration i0 = -C/a of that side (section 4.2.2). Detects loop
/// peeling candidates when i0 is the first or last iteration.
SIVResult testWeakZeroSIV(const LinearExpr &Eq, std::string_view Var,
                          int64_t A, const LoopNestContext &Ctx,
                          TestStats *Stats) {
  Span WeakZeroSpan("SIVTests::testWeakZeroSIV", "siv",
                    testKindTag(TestKind::WeakZeroSIV));
  SIVResult R;
  std::string Base(baseName(Var));
  R.Index = Base;
  bool SinkFixed = isSinkName(Var);
  LinearExpr C = invariantPart(Eq);
  Interval Range = varRange(Ctx, Var);
  std::optional<unsigned> Level = Ctx.levelOf(Base);

  auto BoundExprs = [&]() -> std::pair<const LinearExpr *,
                                       const LinearExpr *> {
    if (Level && Ctx.loop(*Level).Affine)
      return {&Ctx.loop(*Level).Lower, &Ctx.loop(*Level).Upper};
    return {nullptr, nullptr};
  };

  if (C.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::WeakZeroSIV);
    R.Test = TestKind::WeakZeroSIV;
    if (C.getConstant() == INT64_MIN)
      raiseFailure(FailureKind::Overflow, "SIV constant overflow");
    if (!dividesExactly(-C.getConstant(), A))
      return SIVResult::independent(TestKind::WeakZeroSIV);
    int64_t I0 = -C.getConstant() / A;
    Verdict InRange = membershipVerdict(Range, I0);
    if (InRange == Verdict::Independent)
      return SIVResult::independent(TestKind::WeakZeroSIV);
    R.TheVerdict = InRange;
    R.Exact = InRange == Verdict::Dependent;

    // Directions: one side is pinned at I0, the other side ranges over
    // the whole loop.
    DirectionSet Dirs = DirEQ;
    bool AboveOK = !Range.upper() || *Range.upper() > I0;
    bool BelowOK = !Range.lower() || *Range.lower() < I0;
    if (SinkFixed) {
      // Source varies: '<' needs a source iteration below I0.
      if (BelowOK)
        Dirs |= DirLT;
      if (AboveOK)
        Dirs |= DirGT;
      R.IndexConstraint = Constraint::line(0, 1, I0);
    } else {
      // Sink varies: '<' needs a sink iteration above I0.
      if (AboveOK)
        Dirs |= DirLT;
      if (BelowOK)
        Dirs |= DirGT;
      R.IndexConstraint = Constraint::line(1, 0, I0);
    }
    R.Directions = Dirs;

    auto [LowerE, UpperE] = BoundExprs();
    if (LowerE && LowerE->isPureConstant() &&
        LowerE->getConstant() == I0)
      R.PeelFirst = true;
    if (UpperE && UpperE->isPureConstant() &&
        UpperE->getConstant() == I0)
      R.PeelLast = true;
    return R;
  }

  // Symbolic constant part (e.g. Y(1, N) in tomcatv, where the fixed
  // iteration is the symbolic bound N itself).
  if (Stats)
    Stats->noteApplication(TestKind::SymbolicSIV);
  R.Test = TestKind::SymbolicSIV;
  std::optional<LinearExpr> I0Expr = (-C).divideExactly(A);
  if (!I0Expr) {
    // Cannot even form the fixed iteration; fall back to a feasibility
    // interval check on the whole equation.
    Interval V = evaluateEquation(Ctx, Eq);
    if (!canBeZero(V))
      return SIVResult::independent(TestKind::SymbolicSIV);
    R.TheVerdict = Verdict::Maybe;
    return R;
  }
  Interval I0Range = Ctx.evaluate(*I0Expr);
  if (I0Range.intersect(Range).isEmpty())
    return SIVResult::independent(TestKind::SymbolicSIV);

  auto [LowerE, UpperE] = BoundExprs();
  // Symbolic bound comparison: when U - i0 is provably negative (or
  // i0 - L is), the pinned iteration lies outside the loop for every
  // symbol valuation, e.g. i0 = n + 1 against U = n.
  if (UpperE) {
    Interval Diff = Ctx.evaluate(*UpperE - *I0Expr);
    if (Diff.upper() && *Diff.upper() < 0)
      return SIVResult::independent(TestKind::SymbolicSIV);
  }
  if (LowerE) {
    Interval Diff = Ctx.evaluate(*I0Expr - *LowerE);
    if (Diff.upper() && *Diff.upper() < 0)
      return SIVResult::independent(TestKind::SymbolicSIV);
  }
  if (LowerE && *I0Expr == *LowerE)
    R.PeelFirst = true;
  if (UpperE && *I0Expr == *UpperE)
    R.PeelLast = true;

  // Directions by comparing the fixed iteration against the bounds
  // symbolically: e.g. when I0 == U, no iteration above it exists.
  DirectionSet Dirs = DirEQ;
  bool AboveOK = true, BelowOK = true;
  if (UpperE) {
    Interval Diff = Ctx.evaluate(*UpperE - *I0Expr);
    AboveOK = canBePositive(Diff);
  }
  if (LowerE) {
    Interval Diff = Ctx.evaluate(*I0Expr - *LowerE);
    BelowOK = canBePositive(Diff);
  }
  if (SinkFixed) {
    if (BelowOK)
      Dirs |= DirLT;
    if (AboveOK)
      Dirs |= DirGT;
  } else {
    if (AboveOK)
      Dirs |= DirLT;
    if (BelowOK)
      Dirs |= DirGT;
  }
  R.Directions = Dirs;
  R.TheVerdict = Verdict::Maybe;
  return R;
}

/// Weak-crossing SIV test: equation a*i + a*i' + C = 0, so
/// i + i' = -C/a =: S and every dependence crosses iteration S/2
/// (section 4.2.3). Detects loop splitting candidates.
SIVResult testWeakCrossingSIV(const LinearExpr &Eq, std::string_view Index,
                              int64_t A, const LoopNestContext &Ctx,
                              TestStats *Stats) {
  Span WeakCrossingSpan("SIVTests::testWeakCrossingSIV", "siv",
                        testKindTag(TestKind::WeakCrossingSIV));
  SIVResult R;
  R.Index = Index;
  LinearExpr C = invariantPart(Eq);
  Interval Range = varRange(Ctx, Index);
  if (Range.isEmpty())
    return SIVResult::independent(TestKind::WeakCrossingSIV);

  if (C.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::WeakCrossingSIV);
    R.Test = TestKind::WeakCrossingSIV;
    if (C.getConstant() == INT64_MIN)
      raiseFailure(FailureKind::Overflow, "SIV constant overflow");
    // The iteration sum S must be an integer.
    if (!dividesExactly(-C.getConstant(), A))
      return SIVResult::independent(TestKind::WeakCrossingSIV);
    int64_t S = -C.getConstant() / A;
    // Feasible iff S in [2L, 2U] (equivalently the crossing point S/2
    // lies within the loop bounds).
    if (Range.lower() && belowTwice(S, *Range.lower()))
      return SIVResult::independent(TestKind::WeakCrossingSIV);
    if (Range.upper() && aboveTwice(S, *Range.upper()))
      return SIVResult::independent(TestKind::WeakCrossingSIV);
    R.CrossingPoint = Rational(S, 2);
    R.IndexConstraint = Constraint::line(1, 1, S);
    R.Exact = Range.isFinite();
    R.TheVerdict = R.Exact ? Verdict::Dependent : Verdict::Maybe;

    DirectionSet Dirs = DirNone;
    // '<' and '>' need the crossing point strictly inside (L, U); '='
    // needs an integral crossing point within bounds.
    bool StrictlyInside =
        (!Range.lower() || aboveTwice(S, *Range.lower())) &&
        (!Range.upper() || belowTwice(S, *Range.upper()));
    if (StrictlyInside)
      Dirs |= DirLT | DirGT;
    if (S % 2 == 0 && membershipVerdict(Range, S / 2) != Verdict::Independent)
      Dirs |= DirEQ;
    R.Directions = Dirs;
    if (Dirs == DirNone)
      return SIVResult::independent(TestKind::WeakCrossingSIV);
    return R;
  }

  // Symbolic: bound the feasible sums S (A*S = -C) against [2L, 2U].
  if (Stats)
    Stats->noteApplication(TestKind::SymbolicSIV);
  R.Test = TestKind::SymbolicSIV;
  Interval SCandidates = divideRange(Ctx.evaluate(-C), A);
  if (SCandidates.intersect(Range.scale(2)).isEmpty())
    return SIVResult::independent(TestKind::SymbolicSIV);
  if (SCandidates.isPoint()) {
    int64_t S = *SCandidates.lower();
    R.CrossingPoint = Rational(S, 2);
    R.IndexConstraint = Constraint::line(1, 1, S);
  } else if (std::optional<LinearExpr> SExpr = (-C).divideExactly(A)) {
    // The crossing iteration is SExpr / 2, e.g. (n + 1)/2 for the
    // Callahan-Dongarra-Levine reversal: enough for loop splitting
    // even though the numeric value is unknown.
    R.SymbolicCrossingSum = std::move(*SExpr);
  }
  R.TheVerdict = Verdict::Maybe;
  return R;
}

/// General exact SIV test: equation A1*i + B1*i' + C = 0 solved as a
/// two-variable linear Diophantine equation intersected with the
/// iteration box (the Banerjee/Cohagan/Wolfe "single-index exact
/// test"; see also Figure 2's geometric view).
SIVResult testExactSIV(const LinearExpr &Eq, std::string_view Index,
                       int64_t A1, int64_t B1, const LoopNestContext &Ctx,
                       TestStats *Stats) {
  Span ExactSpan("SIVTests::testExactSIV", "siv",
                 testKindTag(TestKind::ExactSIV));
  SIVResult R;
  R.Index = Index;
  LinearExpr C = invariantPart(Eq);
  Interval Range = varRange(Ctx, Index);

  if (!C.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::SymbolicSIV);
    R.Test = TestKind::SymbolicSIV;
    Interval V = evaluateEquation(Ctx, Eq);
    if (!canBeZero(V))
      return SIVResult::independent(TestKind::SymbolicSIV);
    R.TheVerdict = Verdict::Maybe;
    return R;
  }

  if (Stats)
    Stats->noteApplication(TestKind::ExactSIV);
  R.Test = TestKind::ExactSIV;
  int64_t C0 = C.getConstant();
  Verdict V = solveTwoVariableEquation(A1, Range, B1, Range, C0);
  if (V == Verdict::Independent)
    return SIVResult::independent(TestKind::ExactSIV);
  R.TheVerdict = V;
  R.Exact = V == Verdict::Dependent;
  R.IndexConstraint = Constraint::line(A1, B1, -C0);

  // Directions: with x = X0 + XStep*t, y = Y0 + YStep*t, the distance
  // d(t) = y - x is linear in t; its sign pattern over the feasible
  // integer t range gives the direction set.
  DiophantineSolution S = solveDiophantine(A1, B1, C0);
  assert(S.Solvable && "verdict above would have been Independent");
  Bound TLo, THi;
  bool FeasibleX = applyParameterBounds(S.X0, S.XStep, Range, TLo, THi);
  bool FeasibleY = applyParameterBounds(S.Y0, S.YStep, Range, TLo, THi);
  assert(FeasibleX && FeasibleY && "empty range already rejected");
  (void)FeasibleX;
  (void)FeasibleY;

  int64_t D0 = S.Y0 - S.X0;
  int64_t DStep = S.YStep - S.XStep;
  if (DStep == 0) {
    R.Distance = D0;
    R.Directions = directionForDistance(D0);
    // A constant-distance general SIV subscript also induces a
    // distance constraint for the Delta test (stronger than the line).
    R.IndexConstraint = Constraint::distance(D0);
    return R;
  }
  if (!TLo || !THi) {
    R.Directions = DirAll;
    return R;
  }
  int64_t DAtLo = D0 + DStep * *TLo;
  int64_t DAtHi = D0 + DStep * *THi;
  int64_t DMin = std::min(DAtLo, DAtHi);
  int64_t DMax = std::max(DAtLo, DAtHi);
  DirectionSet Dirs = DirNone;
  if (DMax > 0)
    Dirs |= DirLT;
  if (DMin < 0)
    Dirs |= DirGT;
  // d(t) == 0 at t* = -D0 / DStep; '=' needs t* integral and feasible.
  if (dividesExactly(-D0, DStep)) {
    int64_t TStar = -D0 / DStep;
    if (TStar >= *TLo && TStar <= *THi)
      Dirs |= DirEQ;
  }
  if (Dirs == DirNone)
    return SIVResult::independent(TestKind::ExactSIV);
  R.Directions = Dirs;
  return R;
}

} // namespace

SIVResult pdt::testSIV(const LinearExpr &Eq, const LoopNestContext &Ctx,
                       TestStats *Stats) {
  Span SIVSpan("SIVTests::testSIV", "siv");
  LinearExpr::TermRange Terms = Eq.indexTerms();
  assert(!Terms.empty() && Terms.size() <= 2 &&
         "SIV test on a non-SIV equation");

  if (Terms.size() == 1) {
    const auto [Var, Coeff] = Terms[0];
    return testWeakZeroSIV(Eq, Var, Coeff, Ctx, Stats);
  }

  const auto [VarA, CoeffA] = Terms[0];
  const auto [VarB, CoeffB] = Terms[1];
  assert(baseName(VarA) == baseName(VarB) &&
         "SIV test on an RDIV/MIV equation");
  // Equation CoeffA*i + CoeffB*i' + C = 0 in source form is
  // a1 = CoeffA, a2 = -CoeffB (name order guarantees VarA = i,
  // VarB = i').
  std::string_view Index = baseName(VarA);
  // -CoeffB below must not negate INT64_MIN (UB).
  if (CoeffB == INT64_MIN)
    raiseFailure(FailureKind::Overflow, "SIV coefficient overflow");
  int64_t A1 = CoeffA;
  int64_t A2 = -CoeffB;
  if (A1 == A2)
    return testStrongSIV(Eq, Index, A1, Ctx, Stats);
  if (A1 == -A2)
    return testWeakCrossingSIV(Eq, Index, A1, Ctx, Stats);
  return testExactSIV(Eq, Index, CoeffA, CoeffB, Ctx, Stats);
}

SIVResult pdt::testRDIV(const LinearExpr &Eq, const LoopNestContext &Ctx,
                        TestStats *Stats) {
  Span RDIVSpan("SIVTests::testRDIV", "siv", testKindTag(TestKind::RDIV));
  LinearExpr::TermRange Terms = Eq.indexTerms();
  assert(Terms.size() == 2 && "RDIV test needs exactly two variables");
  const auto [VarA, CoeffA] = Terms[0];
  const auto [VarB, CoeffB] = Terms[1];
  assert(baseName(VarA) != baseName(VarB) &&
         "RDIV test on a single-index equation");

  SIVResult R;
  R.Test = TestKind::RDIV;
  LinearExpr C = invariantPart(Eq);
  Interval RangeA = varRange(Ctx, VarA);
  Interval RangeB = varRange(Ctx, VarB);

  if (!C.isPureConstant()) {
    if (Stats)
      Stats->noteApplication(TestKind::RDIV);
    Interval V = evaluateEquation(Ctx, Eq);
    if (!canBeZero(V))
      return SIVResult::independent(TestKind::RDIV);
    R.TheVerdict = Verdict::Maybe;
    return R;
  }

  if (Stats)
    Stats->noteApplication(TestKind::RDIV);
  Verdict V = solveTwoVariableEquation(CoeffA, RangeA, CoeffB, RangeB,
                                       C.getConstant());
  if (V == Verdict::Independent)
    return SIVResult::independent(TestKind::RDIV);
  R.TheVerdict = V;
  R.Exact = V == Verdict::Dependent;
  return R;
}

SIVResult pdt::testSingleSubscript(const LinearExpr &Eq,
                                   const LoopNestContext &Ctx,
                                   TestStats *Stats) {
  switch (shapeOfEquation(Eq)) {
  case SubscriptShape::ZIV:
    return testZIV(Eq, Ctx, Stats);
  case SubscriptShape::StrongSIV:
  case SubscriptShape::WeakZeroSIV:
  case SubscriptShape::WeakCrossingSIV:
  case SubscriptShape::GeneralSIV:
    return testSIV(Eq, Ctx, Stats);
  case SubscriptShape::RDIV:
    return testRDIV(Eq, Ctx, Stats);
  case SubscriptShape::GeneralMIV:
    break;
  }
  SIVResult R;
  R.TheVerdict = Verdict::Maybe;
  return R;
}
