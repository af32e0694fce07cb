//===- fuzz/Shrinker.cpp - Delta-debugging kernel reducer -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "support/MathExtras.h"
#include "support/Metrics.h"

#include <cassert>

using namespace pdt;

namespace {

/// Rebuilds the symbol table to exactly the symbols the structure
/// still mentions, so reductions never leave dangling sampled values.
void pruneSymbols(FuzzKernel &K) {
  std::map<std::string, int64_t> Used;
  for (const FuzzLoop &L : K.Loops)
    if (!L.UpperSymbol.empty())
      Used.insert({L.UpperSymbol, K.SymbolValues.at(L.UpperSymbol)});
  for (const FuzzStmt &S : K.Stmts)
    for (const std::vector<LinearExpr> *Side : {&S.Write, &S.Read})
      for (const LinearExpr &E : *Side)
        for (const auto &[Name, Coeff] : E.symbolTerms()) {
          (void)Coeff;
          std::string Symbol(Name);
          Used.insert({Symbol, K.SymbolValues.at(Symbol)});
        }
  K.SymbolValues = std::move(Used);
}

/// Applies \p Fn to the subscript expression at (statement, side,
/// dimension) and returns the mutated kernel.
template <typename FnT>
FuzzKernel mutateExpr(const FuzzKernel &K, unsigned Stmt, bool WriteSide,
                      unsigned Dim, FnT &&Fn) {
  FuzzKernel Out = K;
  std::vector<LinearExpr> &Side =
      WriteSide ? Out.Stmts[Stmt].Write : Out.Stmts[Stmt].Read;
  Side[Dim] = Fn(Side[Dim]);
  pruneSymbols(Out);
  return Out;
}

/// Visits every subscript expression of the kernel.
template <typename FnT> void forEachExpr(const FuzzKernel &K, FnT &&Fn) {
  for (unsigned S = 0; S != K.Stmts.size(); ++S)
    for (bool WriteSide : {true, false}) {
      const std::vector<LinearExpr> &Side =
          WriteSide ? K.Stmts[S].Write : K.Stmts[S].Read;
      for (unsigned D = 0; D != Side.size(); ++D)
        Fn(S, WriteSide, D, Side[D]);
    }
}

} // namespace

std::vector<FuzzKernel> pdt::fuzzReductionCandidates(const FuzzKernel &K) {
  std::vector<FuzzKernel> Out;

  // Drop a statement.
  if (K.Stmts.size() > 1)
    for (unsigned S = 0; S != K.Stmts.size(); ++S) {
      FuzzKernel C = K;
      C.Stmts.erase(C.Stmts.begin() + S);
      pruneSymbols(C);
      Out.push_back(std::move(C));
    }

  // Drop a loop level (its index terms vanish from every subscript).
  if (K.Loops.size() > 1)
    for (unsigned L = 0; L != K.Loops.size(); ++L) {
      FuzzKernel C = K;
      std::string Index = C.Loops[L].Index;
      C.Loops.erase(C.Loops.begin() + L);
      for (FuzzStmt &S : C.Stmts) {
        for (LinearExpr &E : S.Write)
          E = E.withoutIndex(Index);
        for (LinearExpr &E : S.Read)
          E = E.withoutIndex(Index);
      }
      pruneSymbols(C);
      Out.push_back(std::move(C));
    }

  // Drop an array dimension.
  if (K.rank() > 1)
    for (unsigned D = 0; D != K.rank(); ++D) {
      FuzzKernel C = K;
      for (FuzzStmt &S : C.Stmts) {
        S.Write.erase(S.Write.begin() + D);
        S.Read.erase(S.Read.begin() + D);
      }
      pruneSymbols(C);
      Out.push_back(std::move(C));
    }

  // Concretize a symbolic bound to its sampled value.
  for (unsigned L = 0; L != K.Loops.size(); ++L)
    if (!K.Loops[L].UpperSymbol.empty()) {
      FuzzKernel C = K;
      C.Loops[L].UpperSymbol.clear();
      pruneSymbols(C);
      Out.push_back(std::move(C));
    }

  // Drop a symbol term from a subscript.
  forEachExpr(K, [&](unsigned S, bool W, unsigned D, const LinearExpr &E) {
    for (const auto &[Name, Coeff] : E.symbolTerms())
      Out.push_back(mutateExpr(K, S, W, D, [&](const LinearExpr &X) {
        return X - LinearExpr::symbol(Name, Coeff);
      }));
  });

  // Zero an index coefficient.
  forEachExpr(K, [&](unsigned S, bool W, unsigned D, const LinearExpr &E) {
    for (const auto &[Name, Coeff] : E.indexTerms()) {
      (void)Coeff;
      Out.push_back(mutateExpr(
          K, S, W, D,
          [&](const LinearExpr &X) { return X.withoutIndex(Name); }));
    }
  });

  // Simplify a coefficient to +-1.
  forEachExpr(K, [&](unsigned S, bool W, unsigned D, const LinearExpr &E) {
    for (const auto &[Name, Coeff] : E.indexTerms())
      if (Coeff > 1 || Coeff < -1) {
        int64_t Sign = Coeff > 0 ? 1 : -1;
        Out.push_back(mutateExpr(K, S, W, D, [&](const LinearExpr &X) {
          return X - LinearExpr::index(Name, Coeff) +
                 LinearExpr::index(Name, Sign);
        }));
      }
  });

  // Move an additive constant toward zero (all the way, then halves:
  // one step usually suffices, the halving ladder handles the cases
  // where the magnitude matters).
  forEachExpr(K, [&](unsigned S, bool W, unsigned D, const LinearExpr &E) {
    int64_t C = E.getConstant();
    if (C == 0)
      return;
    Out.push_back(mutateExpr(K, S, W, D, [&](const LinearExpr &X) {
      return X - LinearExpr(X.getConstant());
    }));
    if (C != C / 2)
      Out.push_back(mutateExpr(K, S, W, D, [&](const LinearExpr &X) {
        return X - LinearExpr(X.getConstant()) + LinearExpr(X.getConstant() / 2);
      }));
  });

  // Tighten a constant upper bound: single trip, then halve the span.
  for (unsigned L = 0; L != K.Loops.size(); ++L) {
    const FuzzLoop &Loop = K.Loops[L];
    if (!Loop.UpperSymbol.empty() || Loop.Upper <= Loop.Lower)
      continue;
    FuzzKernel C = K;
    C.Loops[L].Upper = Loop.Lower;
    Out.push_back(std::move(C));
    int64_t Mid = Loop.Lower + (Loop.Upper - Loop.Lower) / 2;
    if (Mid != Loop.Lower && Mid != Loop.Upper) {
      FuzzKernel C2 = K;
      C2.Loops[L].Upper = Mid;
      Out.push_back(std::move(C2));
    }
  }

  // Shift a loop to the canonical lower bound 1 (trip count kept).
  for (unsigned L = 0; L != K.Loops.size(); ++L) {
    const FuzzLoop &Loop = K.Loops[L];
    if (Loop.Lower == 1 || !Loop.UpperSymbol.empty())
      continue;
    std::optional<int64_t> Shift = checkedSub(1, Loop.Lower);
    std::optional<int64_t> NewUpper =
        Shift ? checkedAdd(Loop.Upper, *Shift) : std::nullopt;
    if (!NewUpper)
      continue;
    FuzzKernel C = K;
    C.Loops[L].Lower = 1;
    C.Loops[L].Upper = *NewUpper;
    Out.push_back(std::move(C));
  }

  return Out;
}

FuzzShrinkResult pdt::shrinkFuzzKernel(FuzzKernel K,
                                       const FuzzPredicate &StillFails,
                                       unsigned MaxSteps) {
  FuzzShrinkResult Result;
  Result.StepsTried = 1;
  if (!StillFails(K)) {
    // The caller's kernel does not reproduce; nothing to shrink.
    Result.Kernel = std::move(K);
    Result.Minimal = false;
    return Result;
  }

  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (FuzzKernel &Candidate : fuzzReductionCandidates(K)) {
      if (Result.StepsTried >= MaxSteps) {
        Result.Minimal = false;
        break;
      }
      Result.StepsTried += 1;
      Metrics::count(Metric::FuzzShrinkSteps);
      if (StillFails(Candidate)) {
        K = std::move(Candidate);
        Result.Reductions += 1;
        Progress = true;
        break;
      }
    }
    if (!Result.Minimal)
      break;
  }
  Result.Kernel = std::move(K);
  return Result;
}
