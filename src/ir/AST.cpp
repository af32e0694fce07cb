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

#include <algorithm>
#include <new>

using namespace pdt;

ASTContext::~ASTContext() {
  for (NodeHeader *N = Nodes; N;) {
    NodeHeader *Prev = N->Prev;
    N->Destroy(reinterpret_cast<char *>(N) + alignUp(sizeof(NodeHeader)));
    N = Prev;
  }
  for (BlockHeader *B = Blocks; B;) {
    BlockHeader *Prev = B->Prev;
    ::operator delete(B);
    B = Prev;
  }
}

void *ASTContext::allocate(size_t Size) {
  Size = alignUp(Size);
  if (static_cast<size_t>(End - Cur) < Size) {
    size_t Bytes = std::max(BlockSize, alignUp(sizeof(BlockHeader)) + Size);
    char *Mem = static_cast<char *>(::operator new(Bytes));
    Blocks = new (Mem) BlockHeader{Blocks};
    Cur = Mem + alignUp(sizeof(BlockHeader));
    End = Mem + Bytes;
  }
  void *P = Cur;
  Cur += Size;
  return P;
}

const IntLiteral *ASTContext::getInt(int64_t Value) {
  return create<IntLiteral>(Value);
}

const VarRef *ASTContext::getVar(std::string Name) {
  return create<VarRef>(std::move(Name));
}

const UnaryExpr *ASTContext::getNeg(const Expr *Operand) {
  return create<UnaryExpr>(UnaryExpr::Opcode::Neg, Operand);
}

const BinaryExpr *ASTContext::getBinary(BinaryExpr::Opcode Op, const Expr *LHS,
                                        const Expr *RHS) {
  return create<BinaryExpr>(Op, LHS, RHS);
}

const ArrayElement *
ASTContext::getArrayElement(std::string Name,
                            std::vector<const Expr *> Subscripts) {
  return create<ArrayElement>(std::move(Name), std::move(Subscripts));
}

const AssignStmt *ASTContext::createArrayAssign(const ArrayElement *Target,
                                                const Expr *Value) {
  return create<AssignStmt>(Target, Value);
}

const AssignStmt *ASTContext::createScalarAssign(std::string Name,
                                                 const Expr *Value) {
  return create<AssignStmt>(std::move(Name), Value);
}

const DoLoop *ASTContext::createDoLoop(std::string Index, const Expr *Lower,
                                       const Expr *Upper, const Expr *Step,
                                       std::vector<const Stmt *> Body) {
  return create<DoLoop>(std::move(Index), Lower, Upper, Step, std::move(Body));
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
