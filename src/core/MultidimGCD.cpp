//===- core/MultidimGCD.cpp - Multidimensional GCD test -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MultidimGCD.h"

#include "support/MathExtras.h"

#include <cassert>
#include <map>

using namespace pdt;

std::optional<ParametricSolution>
pdt::solveIntegerSystem(std::vector<std::vector<int64_t>> A,
                        std::vector<int64_t> B) {
  assert(A.size() == B.size() && "row/rhs count mismatch");
  unsigned Rows = A.size();
  unsigned Cols = Rows ? A[0].size() : 0;
  if (Cols == 0) {
    for (int64_t V : B)
      if (V != 0)
        return std::nullopt;
    return ParametricSolution{{}, {}};
  }

  // Diagonalize with unimodular row and column operations. Row ops
  // also transform B; column ops reparameterize x = V * y, so V is
  // tracked to recover solutions in the original variables.
  std::vector<std::vector<int64_t>> V(Cols, std::vector<int64_t>(Cols, 0));
  for (unsigned I = 0; I != Cols; ++I)
    V[I][I] = 1;
  auto ColumnCombine = [&](unsigned C1, unsigned C2, int64_t U11, int64_t U12,
                           int64_t U21, int64_t U22) {
    // (col C1, col C2) <- (U11*C1 + U12*C2, U21*C1 + U22*C2), applied
    // to both A and V.
    for (unsigned I = 0; I != Rows; ++I) {
      int64_t NewC1 = U11 * A[I][C1] + U12 * A[I][C2];
      int64_t NewC2 = U21 * A[I][C1] + U22 * A[I][C2];
      A[I][C1] = NewC1;
      A[I][C2] = NewC2;
    }
    for (unsigned I = 0; I != Cols; ++I) {
      int64_t NewC1 = U11 * V[I][C1] + U12 * V[I][C2];
      int64_t NewC2 = U21 * V[I][C1] + U22 * V[I][C2];
      V[I][C1] = NewC1;
      V[I][C2] = NewC2;
    }
  };

  unsigned R = 0, C = 0;
  while (R < Rows && C < Cols) {
    unsigned PR = R, PC = C;
    bool Found = false;
    for (unsigned J = C; J != Cols && !Found; ++J)
      for (unsigned I = R; I != Rows && !Found; ++I)
        if (A[I][J] != 0) {
          PR = I;
          PC = J;
          Found = true;
        }
    if (!Found)
      break;
    std::swap(A[R], A[PR]);
    std::swap(B[R], B[PR]);
    if (PC != C) {
      for (unsigned I = 0; I != Rows; ++I)
        std::swap(A[I][C], A[I][PC]);
      for (unsigned I = 0; I != Cols; ++I)
        std::swap(V[I][C], V[I][PC]);
    }

    bool Dirty = true;
    while (Dirty) {
      Dirty = false;
      // Clear the column below the pivot with unimodular row ops.
      for (unsigned I = R + 1; I < Rows; ++I) {
        if (A[I][C] == 0)
          continue;
        if (dividesExactly(A[I][C], A[R][C])) {
          int64_t Q = A[I][C] / A[R][C];
          for (unsigned J = C; J != Cols; ++J)
            A[I][J] -= Q * A[R][J];
          B[I] -= Q * B[R];
        } else {
          ExtendedGCDResult E = extendedGCD(A[R][C], A[I][C]);
          int64_t P = A[R][C] / E.Gcd, Q = A[I][C] / E.Gcd;
          for (unsigned J = C; J != Cols; ++J) {
            int64_t NewR = E.CoeffA * A[R][J] + E.CoeffB * A[I][J];
            int64_t NewI = -Q * A[R][J] + P * A[I][J];
            A[R][J] = NewR;
            A[I][J] = NewI;
          }
          int64_t NewBR = E.CoeffA * B[R] + E.CoeffB * B[I];
          int64_t NewBI = -Q * B[R] + P * B[I];
          B[R] = NewBR;
          B[I] = NewBI;
          Dirty = true;
        }
      }
      // Clear the row to the right of the pivot with column ops.
      for (unsigned J = C + 1; J < Cols; ++J) {
        if (A[R][J] == 0)
          continue;
        if (dividesExactly(A[R][J], A[R][C])) {
          int64_t Q = A[R][J] / A[R][C];
          // col J -= Q * col C.
          ColumnCombine(C, J, 1, 0, -Q, 1);
        } else {
          ExtendedGCDResult E = extendedGCD(A[R][C], A[R][J]);
          int64_t P = A[R][C] / E.Gcd, Q = A[R][J] / E.Gcd;
          // (C, J) <- (u*C + v*J, -Q*C + P*J): unimodular since
          // u*P + v*Q = 1.
          ColumnCombine(C, J, E.CoeffA, E.CoeffB, -Q, P);
          Dirty = true;
        }
      }
    }
    ++R;
    ++C;
  }
  unsigned Rank = R;

  // Zero rows must have zero right-hand sides; pivot entries must
  // divide theirs.
  for (unsigned I = Rank; I < Rows; ++I)
    if (B[I] != 0)
      return std::nullopt;
  std::vector<int64_t> Y(Cols, 0);
  for (unsigned I = 0; I != Rank; ++I) {
    if (!dividesExactly(B[I], A[I][I]))
      return std::nullopt;
    Y[I] = B[I] / A[I][I];
  }

  ParametricSolution S;
  S.X0.assign(Cols, 0);
  for (unsigned I = 0; I != Cols; ++I)
    for (unsigned K = 0; K != Rank; ++K)
      S.X0[I] += V[I][K] * Y[K];
  for (unsigned K = Rank; K != Cols; ++K) {
    std::vector<int64_t> Gen(Cols);
    for (unsigned I = 0; I != Cols; ++I)
      Gen[I] = V[I][K];
    S.Basis.push_back(std::move(Gen));
  }
  return S;
}

bool pdt::integerSystemSolvable(std::vector<std::vector<int64_t>> A,
                                std::vector<int64_t> B) {
  return solveIntegerSystem(std::move(A), std::move(B)).has_value();
}

Verdict
pdt::multidimensionalGCDTest(const std::vector<SubscriptPair> &Subscripts,
                             const LoopNestContext &Ctx, TestStats *Stats) {
  (void)Ctx;
  if (Stats)
    Stats->noteApplication(TestKind::MultidimensionalGCD);

  // Variables: every tagged index name that appears in any equation.
  std::map<std::string, unsigned, std::less<>> VarSlot;
  std::vector<LinearExpr> Eqs;
  for (const SubscriptPair &S : Subscripts) {
    LinearExpr Eq = S.equation();
    if (!Eq.symbolTerms().empty())
      continue; // Symbolic right-hand side: skip this equation.
    for (const auto &[Name, Coeff] : Eq.indexTerms())
      if (VarSlot.find(Name) == VarSlot.end())
        VarSlot.emplace(std::string(Name), VarSlot.size());
    Eqs.push_back(std::move(Eq));
  }
  if (Eqs.empty())
    return Verdict::Maybe;

  std::vector<std::vector<int64_t>> A;
  std::vector<int64_t> B;
  for (const LinearExpr &Eq : Eqs) {
    std::vector<int64_t> Row(VarSlot.size(), 0);
    for (const auto &[Name, Coeff] : Eq.indexTerms())
      Row[VarSlot.find(Name)->second] = Coeff;
    A.push_back(std::move(Row));
    B.push_back(-Eq.getConstant());
  }

  if (!integerSystemSolvable(std::move(A), std::move(B))) {
    if (Stats)
      Stats->noteIndependence(TestKind::MultidimensionalGCD);
    return Verdict::Independent;
  }
  return Verdict::Maybe;
}
