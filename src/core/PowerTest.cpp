//===- core/PowerTest.cpp - Wolfe-Tseng Power test core -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PowerTest.h"

#include "core/FourierMotzkin.h"
#include "core/MultidimGCD.h"

#include <cassert>
#include <map>

using namespace pdt;

Verdict pdt::powerTest(const std::vector<SubscriptPair> &Subscripts,
                       const LoopNestContext &Ctx, TestStats *Stats) {
  if (Stats)
    Stats->noteApplication(TestKind::Power);

  // Iteration variables: the source and sink instance of every loop
  // index, whether or not a subscript mentions it (bounds of inner
  // loops may reference outer indices).
  unsigned Depth = Ctx.depth();
  std::map<std::string, unsigned, std::less<>> VarSlot;
  for (unsigned L = 0; L != Depth; ++L) {
    const std::string &Name = Ctx.loop(L).Index;
    VarSlot.try_emplace(Name, VarSlot.size());
    VarSlot.try_emplace(sinkName(Name), VarSlot.size());
  }

  // Assemble the integer system from the symbol-free equations.
  std::vector<LinearExpr> Eqs;
  for (const SubscriptPair &S : Subscripts) {
    LinearExpr Eq = S.equation();
    if (!Eq.symbolTerms().empty())
      continue; // Cannot constrain the lattice; sound to drop.
    bool AllKnown = true;
    for (const auto &[Name, Coeff] : Eq.indexTerms())
      AllKnown &= VarSlot.count(Name) != 0;
    if (!AllKnown)
      continue; // References an index outside this nest.
    Eqs.push_back(std::move(Eq));
  }
  if (Eqs.empty())
    return Verdict::Maybe;

  unsigned NumVars = VarSlot.size();
  std::vector<std::vector<int64_t>> A;
  std::vector<int64_t> B;
  for (const LinearExpr &Eq : Eqs) {
    std::vector<int64_t> Row(NumVars, 0);
    for (const auto &[Name, Coeff] : Eq.indexTerms())
      Row[VarSlot.find(Name)->second] = Coeff;
    A.push_back(std::move(Row));
    B.push_back(-Eq.getConstant());
  }

  // Phase 1: dense integer elimination (the multidimensional GCD
  // test): every integer solution is x = X0 + Basis * t.
  std::optional<ParametricSolution> Solution =
      solveIntegerSystem(std::move(A), std::move(B));
  if (!Solution) {
    if (Stats)
      Stats->noteIndependence(TestKind::Power);
    return Verdict::Independent;
  }
  unsigned NumLattice = Solution->Basis.size();

  // Phase 2: apply the loop bounds (including triangular/trapezoidal
  // coupling between levels and symbolic extents) to the lattice with
  // Fourier-Motzkin elimination over the parameters: the lattice
  // coordinates t, plus one variable per symbolic constant in bounds.
  std::map<std::string, unsigned, std::less<>> SymbolParam;
  unsigned NumParams = NumLattice; // Symbols appended on demand.
  auto SymbolIndex = [&](std::string_view Name) {
    auto [It, Inserted] = SymbolParam.try_emplace(std::string(Name), NumParams);
    if (Inserted)
      ++NumParams;
    return It->second;
  };
  // Pre-scan bound expressions so NumParams is final before rows are
  // emitted.
  for (unsigned L = 0; L != Depth; ++L) {
    if (!Ctx.loop(L).Affine)
      continue;
    for (const LinearExpr *E : {&Ctx.loop(L).Lower, &Ctx.loop(L).Upper})
      for (const auto &[Name, Coeff] : E->symbolTerms())
        SymbolIndex(Name);
  }

  FMSystem System(NumParams);

  // Expands variable slot \p Slot into parameter space: appends
  // Scale * x_Slot to (Coeffs, Const).
  auto AddVar = [&](std::vector<Rational> &Coeffs, Rational &Const,
                    unsigned Slot, int64_t Scale) {
    Const = Const + Rational(Scale * Solution->X0[Slot]);
    for (unsigned K = 0; K != NumLattice; ++K)
      Coeffs[K] = Coeffs[K] + Rational(Scale * Solution->Basis[K][Slot]);
  };

  // Emits x_v - Bound >= 0 (Sense=+1) or Bound - x_v >= 0 (Sense=-1)
  // for the given side instance of level \p L.
  auto AddBoundRow = [&](unsigned L, bool Snk, const LinearExpr &Bound,
                         int Sense) {
    std::vector<Rational> Coeffs(NumParams, Rational(0));
    Rational Const(0);
    const std::string &Index = Ctx.loop(L).Index;
    std::string VarName = Snk ? sinkName(Index) : Index;
    AddVar(Coeffs, Const, VarSlot[VarName], Sense);
    // Subtract (Sense=+1) or add (Sense=-1) the bound expression.
    Const = Const + Rational(-Sense * Bound.getConstant());
    for (const auto &[Name, Coeff] : Bound.indexTerms()) {
      std::string Outer = Snk ? sinkName(Name) : std::string(Name);
      assert(VarSlot.count(Outer) && "bound uses unknown outer index");
      AddVar(Coeffs, Const, VarSlot[Outer], -Sense * Coeff);
    }
    for (const auto &[Name, Coeff] : Bound.symbolTerms()) {
      unsigned P = SymbolIndex(Name);
      Coeffs[P] = Coeffs[P] + Rational(-Sense * Coeff);
    }
    System.addInequality(std::move(Coeffs), Const);
  };

  for (unsigned L = 0; L != Depth; ++L) {
    const LoopBounds &LB = Ctx.loop(L);
    if (!LB.Affine)
      continue; // Unknown bounds constrain nothing.
    for (bool Snk : {false, true}) {
      AddBoundRow(L, Snk, LB.Lower, +1);
      AddBoundRow(L, Snk, LB.Upper, -1);
    }
  }

  // Symbol range assumptions.
  for (const auto &[Name, Param] : SymbolParam) {
    const Interval *Range = Ctx.symbolRange(Name);
    if (!Range)
      continue;
    if (Range->lower()) {
      std::vector<Rational> Coeffs(NumParams, Rational(0));
      Coeffs[Param] = Rational(1);
      System.addInequality(std::move(Coeffs),
                           Rational(-*Range->lower()));
    }
    if (Range->upper()) {
      std::vector<Rational> Coeffs(NumParams, Rational(0));
      Coeffs[Param] = Rational(-1);
      System.addInequality(std::move(Coeffs),
                           Rational(*Range->upper()));
    }
  }

  if (!System.isRationallyFeasible()) {
    if (Stats)
      Stats->noteIndependence(TestKind::Power);
    return Verdict::Independent;
  }
  return Verdict::Maybe;
}
