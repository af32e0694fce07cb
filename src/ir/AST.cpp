//===- ir/AST.cpp - Loop-nest IR for dependence testing -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/AST.h"

#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/MathExtras.h"

using namespace pdt;

const IntLiteral *ASTContext::getInt(int64_t Value) {
  return addExpr(std::make_unique<IntLiteral>(Value));
}

const VarRef *ASTContext::getVar(std::string Name) {
  return addExpr(std::make_unique<VarRef>(std::move(Name)));
}

const UnaryExpr *ASTContext::getNeg(const Expr *Operand) {
  return addExpr(
      std::make_unique<UnaryExpr>(UnaryExpr::Opcode::Neg, Operand));
}

const BinaryExpr *ASTContext::getBinary(BinaryExpr::Opcode Op, const Expr *LHS,
                                        const Expr *RHS) {
  return addExpr(std::make_unique<BinaryExpr>(Op, LHS, RHS));
}

const ArrayElement *
ASTContext::getArrayElement(std::string Name,
                            std::vector<const Expr *> Subscripts) {
  return addExpr(
      std::make_unique<ArrayElement>(std::move(Name), std::move(Subscripts)));
}

const AssignStmt *ASTContext::createArrayAssign(const ArrayElement *Target,
                                                const Expr *Value) {
  return addStmt(std::make_unique<AssignStmt>(Target, Value));
}

const AssignStmt *ASTContext::createScalarAssign(std::string Name,
                                                 const Expr *Value) {
  return addStmt(std::make_unique<AssignStmt>(std::move(Name), Value));
}

const DoLoop *ASTContext::createDoLoop(std::string Index, const Expr *Lower,
                                       const Expr *Upper, const Expr *Step,
                                       std::vector<const Stmt *> Body) {
  return addStmt(std::make_unique<DoLoop>(std::move(Index), Lower, Upper,
                                          Step, std::move(Body)));
}

std::optional<int64_t> pdt::evaluateConstantExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return cast<IntLiteral>(E)->getValue();
  case Expr::Kind::VarRef:
  case Expr::Kind::ArrayElement:
    return std::nullopt;
  case Expr::Kind::Unary: {
    std::optional<int64_t> V =
        evaluateConstantExpr(cast<UnaryExpr>(E)->getOperand());
    if (!V)
      return std::nullopt;
    return checkedSub(0, *V);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::optional<int64_t> L = evaluateConstantExpr(B->getLHS());
    std::optional<int64_t> R = evaluateConstantExpr(B->getRHS());
    if (!L || !R)
      return std::nullopt;
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return checkedAdd(*L, *R);
    case BinaryExpr::Opcode::Sub:
      return checkedSub(*L, *R);
    case BinaryExpr::Opcode::Mul:
      return checkedMul(*L, *R);
    case BinaryExpr::Opcode::Div:
      // The language's integer division truncates (matching the
      // reference interpreter); only division by zero is undefined.
      if (*R == 0)
        return std::nullopt;
      if (*R == -1)
        return checkedSub(0, *L); // INT64_MIN / -1 overflows.
      return *L / *R;
    }
    pdt_unreachable("covered switch");
  }
  }
  pdt_unreachable("covered switch");
}
