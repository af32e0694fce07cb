//===- analysis/Normalization.cpp - Loop normalization --------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Normalization.h"

#include "analysis/ASTRewriter.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/MathExtras.h"

using namespace pdt;

namespace {

class Normalizer {
public:
  explicit Normalizer(ASTContext &Ctx) : Ctx(Ctx) {}

  const Stmt *visit(const Stmt *S, const VarSubstitution &Subst) {
    switch (S->getKind()) {
    case Stmt::Kind::Assign:
      return cloneStmt(Ctx, S, Subst);
    case Stmt::Kind::DoLoop:
      return visitLoop(cast<DoLoop>(S), Subst);
    }
    pdt_unreachable("covered switch");
  }

private:
  ASTContext &Ctx;

  const Stmt *visitLoop(const DoLoop *L, const VarSubstitution &Subst) {
    const Expr *Lower = cloneExpr(Ctx, L->getLower(), Subst);
    const Expr *Upper = cloneExpr(Ctx, L->getUpper(), Subst);
    const Expr *Step = cloneExpr(Ctx, L->getStep(), Subst);
    const std::string &Index = L->getIndexName();

    VarSubstitution BodySubst = Subst;
    BodySubst.erase(Index);

    std::optional<int64_t> StepC = evaluateConstantExpr(Step);
    std::optional<int64_t> LowerC = evaluateConstantExpr(Lower);
    std::optional<int64_t> UpperC = evaluateConstantExpr(Upper);

    const Expr *NewLower = Lower;
    const Expr *NewUpper = Upper;
    const Expr *NewStep = Step;

    // A constant the renumbering needs that does not fit in int64
    // leaves the loop as written: folding it would wrap, and a wrapped
    // bound can make a nest look empty.
    if (StepC == 1) {
      std::optional<int64_t> ShiftC =
          LowerC ? checkedSub(*LowerC, 1) : std::nullopt;
      std::optional<int64_t> UpperN;
      if (LowerC && UpperC)
        if (std::optional<int64_t> Extent = checkedSub(*UpperC, *LowerC))
          UpperN = checkedAdd(*Extent, 1);
      bool Fits = !LowerC || (ShiftC && (!UpperC || UpperN));
      if (LowerC != 1 && Fits) {
        // Shift: i in [L, U] becomes i in [1, U-L+1], body uses
        // i + (L-1). Fold when the bounds are constant.
        NewLower = Ctx.getInt(1);
        if (UpperN)
          NewUpper = Ctx.getInt(*UpperN);
        else
          NewUpper = Ctx.getAdd(Ctx.getSub(Upper, Lower), Ctx.getInt(1));
        const Expr *Shift = ShiftC ? static_cast<const Expr *>(
                                         Ctx.getInt(*ShiftC))
                                   : Ctx.getSub(Lower, Ctx.getInt(1));
        BodySubst[Index] = Ctx.getAdd(Ctx.getVar(Index), Shift);
      }
    } else if (StepC && *StepC != 0 && LowerC && UpperC) {
      // Constant bounds: renumber iterations 1..Count; original value
      // is L + (i-1)*S.
      int64_t L0 = *LowerC;
      int64_t U0 = *UpperC;
      int64_t S0 = *StepC;
      std::optional<int64_t> Count = 0;
      if ((S0 > 0 && L0 <= U0) || (S0 < 0 && L0 >= U0)) {
        std::optional<int64_t> Span = checkedSub(U0, L0);
        std::optional<int64_t> Num = Span ? checkedAdd(*Span, S0) : Span;
        Count = Num && !(*Num == INT64_MIN && S0 == -1)
                    ? std::optional<int64_t>(floorDiv(*Num, S0))
                    : std::nullopt;
      }
      if (Count) {
        NewLower = Ctx.getInt(1);
        NewUpper = Ctx.getInt(*Count);
        NewStep = Ctx.getInt(1);
        BodySubst[Index] = Ctx.getAdd(
            Ctx.getInt(L0),
            Ctx.getMul(Ctx.getSub(Ctx.getVar(Index), Ctx.getInt(1)),
                       Ctx.getInt(S0)));
      }
    }
    // Anything else (symbolic non-unit step, non-constant step) is
    // left as-is; the analyzer treats such loops conservatively.

    // Fold fully constant bounds to literals so downstream analyses
    // see them as affine (e.g. the (n+1)/2 bound of a split loop once
    // n is known).
    if (std::optional<int64_t> V = evaluateConstantExpr(NewLower))
      NewLower = Ctx.getInt(*V);
    if (std::optional<int64_t> V = evaluateConstantExpr(NewUpper))
      NewUpper = Ctx.getInt(*V);

    std::vector<const Stmt *> Body;
    Body.reserve(L->getBody().size());
    for (const Stmt *Child : L->getBody())
      Body.push_back(visit(Child, BodySubst));
    return Ctx.createDoLoop(Index, NewLower, NewUpper, NewStep,
                            std::move(Body));
  }
};

} // namespace

Program pdt::normalizeLoops(const Program &P) {
  Program Result;
  Result.Name = P.Name;
  Normalizer N(*Result.Context);
  for (const Stmt *S : P.TopLevel)
    Result.TopLevel.push_back(N.visit(S, VarSubstitution()));
  return Result;
}
