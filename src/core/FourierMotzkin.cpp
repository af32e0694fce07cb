//===- core/FourierMotzkin.cpp - FM elimination baseline ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FourierMotzkin.h"

#include "support/Failure.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <map>

using namespace pdt;

void FMSystem::addInequality(std::vector<Rational> Coeffs, Rational Const) {
  assert(Coeffs.size() == NumVars && "coefficient count mismatch");
  Rows.push_back({std::move(Coeffs), Const});
}

void FMSystem::addEquality(const std::vector<Rational> &Coeffs,
                           Rational Const) {
  addInequality(Coeffs, Const);
  std::vector<Rational> Neg(Coeffs.size());
  for (unsigned I = 0; I != Coeffs.size(); ++I)
    Neg[I] = -Coeffs[I];
  addInequality(std::move(Neg), -Const);
}

bool FMSystem::isRationallyFeasible(unsigned MaxRows) const {
  FMBudget Budget;
  Budget.MaxRows = MaxRows;
  return isRationallyFeasible(Budget);
}

bool FMSystem::isRationallyFeasible(const FMBudget &Budget,
                                    bool *BudgetHit) const {
  if (BudgetHit)
    *BudgetHit = false;
  auto GiveUp = [BudgetHit] {
    if (BudgetHit)
      *BudgetHit = true;
    return true; // Budget exhausted: conservatively feasible.
  };
  uint64_t Steps = 0;
  std::vector<Row> Work = Rows;
  for (unsigned Var = 0; Var != NumVars; ++Var) {
    std::vector<Row> Lower, Upper, Rest;
    for (Row &R : Work) {
      const Rational &C = R.Coeffs[Var];
      if (C.isZero()) {
        Rest.push_back(std::move(R));
        continue;
      }
      // Scale by 1/|c| (positive, so the direction is preserved):
      // rows with +1 on the variable read x + rest >= 0 (a lower
      // bound x >= -rest), rows with -1 read -x + rest >= 0 (an upper
      // bound x <= rest).
      Rational Scale = Rational(1) / (C.isPositive() ? C : -C);
      for (Rational &K : R.Coeffs)
        K = K * Scale;
      R.Const = R.Const * Scale;
      if (C.isPositive())
        Lower.push_back(std::move(R));
      else
        Upper.push_back(std::move(R));
    }
    // Combine each lower bound with each upper bound: adding
    // (x + L >= 0) and (-x + U >= 0) cancels the variable and yields
    // the shadow constraint L + U >= 0.
    for (const Row &Lo : Lower) {
      for (const Row &Up : Upper) {
        FaultInjector::checkpoint();
        ++Steps;
        if (Budget.MaxSteps != 0 && Steps > Budget.MaxSteps)
          return GiveUp();
        // A clock read per step would dominate the combine; poll the
        // deadline cooperatively every 64 steps.
        if (Budget.Tracker && (Steps & 63) == 0 &&
            Budget.Tracker->deadlineExpired())
          return GiveUp();
        Row Combined;
        Combined.Coeffs.resize(NumVars);
        for (unsigned K = 0; K != NumVars; ++K)
          Combined.Coeffs[K] = Lo.Coeffs[K] + Up.Coeffs[K];
        Combined.Coeffs[Var] = Rational(0);
        Combined.Const = Lo.Const + Up.Const;
        Rest.push_back(std::move(Combined));
        if (Rest.size() > Budget.MaxRows)
          return GiveUp(); // Blowup: give up conservatively.
      }
    }
    Work = std::move(Rest);
  }
  // Only constant rows remain: all must be satisfied.
  for (const Row &R : Work)
    if (R.Const.isNegative())
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Dependence front end
//===----------------------------------------------------------------------===//

namespace {

/// The uncontained body of fourierMotzkinTest; may raise AnalysisError
/// (rational overflow while building or eliminating rows).
Verdict fourierMotzkinTestImpl(const std::vector<SubscriptPair> &Subscripts,
                               const LoopNestContext &Ctx, TestStats *Stats,
                               const FMBudget *Budget) {
  if (Stats)
    Stats->noteApplication(TestKind::FourierMotzkin);

  // Variable layout: source indices [0, d), sink indices [d, 2d),
  // then one variable per symbol encountered.
  unsigned Depth = Ctx.depth();
  std::map<std::string, unsigned, std::less<>> SymbolVar;
  auto SymbolIndex = [&SymbolVar, Depth](std::string_view Name) {
    auto It = SymbolVar.find(Name);
    if (It == SymbolVar.end())
      It = SymbolVar.emplace(std::string(Name), 2 * Depth + SymbolVar.size())
               .first;
    return It->second;
  };

  // First pass: discover symbols (from subscripts and loop bounds).
  for (const SubscriptPair &S : Subscripts) {
    for (const auto &[Name, Coeff] : S.Src.symbolTerms())
      SymbolIndex(Name);
    for (const auto &[Name, Coeff] : S.Dst.symbolTerms())
      SymbolIndex(Name);
  }
  for (unsigned L = 0; L != Depth; ++L) {
    if (!Ctx.loop(L).Affine)
      continue;
    for (const auto &[Name, Coeff] : Ctx.loop(L).Lower.symbolTerms())
      SymbolIndex(Name);
    for (const auto &[Name, Coeff] : Ctx.loop(L).Upper.symbolTerms())
      SymbolIndex(Name);
  }

  unsigned NumVars = 2 * Depth + SymbolVar.size();
  FMSystem System(NumVars);

  // Converts an affine expression to a coefficient row. \p SinkSide
  /// selects whether untagged index names map to source or sink slots.
  auto ToRow = [&](const LinearExpr &E, bool SinkSide,
                   std::vector<Rational> &Coeffs, Rational &Const) {
    Coeffs.assign(NumVars, Rational(0));
    Const = Rational(E.getConstant());
    for (const auto &[Name, Coeff] : E.indexTerms()) {
      std::optional<unsigned> Level = Ctx.levelOf(Name);
      assert(Level && "subscript uses an index outside the nest");
      unsigned Slot = *Level + (SinkSide ? Depth : 0);
      Coeffs[Slot] = Coeffs[Slot] + Rational(Coeff);
    }
    for (const auto &[Name, Coeff] : E.symbolTerms()) {
      unsigned Slot = SymbolIndex(Name);
      Coeffs[Slot] = Coeffs[Slot] + Rational(Coeff);
    }
  };

  // Loop bounds for both the source and the sink copies of each index:
  // x_l - Lower_l >= 0 and Upper_l - x_l >= 0, with the bound
  // expressions referencing outer copies of the same side.
  for (unsigned L = 0; L != Depth; ++L) {
    const LoopBounds &B = Ctx.loop(L);
    if (!B.Affine)
      continue; // Unbounded variable.
    for (bool SinkSide : {false, true}) {
      std::vector<Rational> Coeffs;
      Rational Const;
      // x - Lower >= 0.
      ToRow(B.Lower, SinkSide, Coeffs, Const);
      for (Rational &K : Coeffs)
        K = -K;
      Const = -Const;
      unsigned Slot = L + (SinkSide ? Depth : 0);
      Coeffs[Slot] = Coeffs[Slot] + Rational(1);
      System.addInequality(Coeffs, Const);
      // Upper - x >= 0.
      ToRow(B.Upper, SinkSide, Coeffs, Const);
      Coeffs[Slot] = Coeffs[Slot] - Rational(1);
      System.addInequality(Coeffs, Const);
    }
  }

  // Symbol range assumptions.
  for (const auto &[Name, Slot] : SymbolVar) {
    const Interval *Range = Ctx.symbolRange(Name);
    if (!Range)
      continue;
    const Interval &R = *Range;
    if (R.lower()) {
      std::vector<Rational> Coeffs(NumVars, Rational(0));
      Coeffs[Slot] = Rational(1);
      System.addInequality(std::move(Coeffs), Rational(-*R.lower()));
    }
    if (R.upper()) {
      std::vector<Rational> Coeffs(NumVars, Rational(0));
      Coeffs[Slot] = Rational(-1);
      System.addInequality(std::move(Coeffs), Rational(*R.upper()));
    }
  }

  // One equality per subscript: Src(i) - Dst(i') = 0.
  for (const SubscriptPair &S : Subscripts) {
    std::vector<Rational> SrcCoeffs, DstCoeffs;
    Rational SrcConst, DstConst;
    ToRow(S.Src, /*SinkSide=*/false, SrcCoeffs, SrcConst);
    ToRow(S.Dst, /*SinkSide=*/true, DstCoeffs, DstConst);
    for (unsigned K = 0; K != NumVars; ++K)
      SrcCoeffs[K] = SrcCoeffs[K] - DstCoeffs[K];
    System.addEquality(SrcCoeffs, SrcConst - DstConst);
  }

  bool BudgetHit = false;
  bool Feasible = Budget ? System.isRationallyFeasible(*Budget, &BudgetHit)
                         : System.isRationallyFeasible();
  if (BudgetHit) {
    Metrics::count(Metric::FMBudgetHits);
    if (Stats)
      ++Stats->FMBudgetHits;
  }
  if (!Feasible) {
    if (Stats)
      Stats->noteIndependence(TestKind::FourierMotzkin);
    return Verdict::Independent;
  }
  return Verdict::Maybe;
}

} // namespace

Verdict pdt::fourierMotzkinTest(const std::vector<SubscriptPair> &Subscripts,
                                const LoopNestContext &Ctx, TestStats *Stats,
                                const FMBudget *Budget) {
  Span FMSpan("FourierMotzkin::test", "fm",
              testKindTag(TestKind::FourierMotzkin));
  LatencyTimer FMLatency(Histo::FMNs);
  // Containment boundary: any failure inside the elimination (rational
  // overflow on adversarial bounds, injected faults) degrades to the
  // conservative Maybe instead of crashing the caller.
  try {
    return fourierMotzkinTestImpl(Subscripts, Ctx, Stats, Budget);
  } catch (const AnalysisError &E) {
    if (Stats)
      Stats->noteDegraded(E.kind());
    return Verdict::Maybe;
  }
}
