//===- ir/LinearExpr.cpp - Canonical affine subscript form ----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/LinearExpr.h"

#include "ir/AST.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"
#include "support/Failure.h"
#include "support/FaultInjector.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace pdt;

//===----------------------------------------------------------------------===//
// Storage
//===----------------------------------------------------------------------===//

LinearExpr::Name::Name(std::string_view S) { init(S); }

void LinearExpr::Name::init(std::string_view S) {
  std::memset(Buf, 0, sizeof(Buf));
  if (S.size() < Tag + 1u) {
    std::memcpy(Buf, S.data(), S.size());
    Buf[Tag] = static_cast<char>(S.size());
    return;
  }
  char *P = new char[S.size()];
  std::memcpy(P, S.data(), S.size());
  uint32_t L = static_cast<uint32_t>(S.size());
  std::memcpy(Buf, &P, sizeof(P));
  std::memcpy(Buf + sizeof(char *), &L, sizeof(L));
  Buf[Tag] = static_cast<char>(SpillTag);
}

size_t LinearExpr::Name::hash() const {
  if (spilled())
    return std::hash<std::string_view>{}(view());
  // Inline names are zero-padded, so the two words are the name.
  uint64_t W[2];
  std::memcpy(W, Buf, sizeof(Buf));
  return static_cast<size_t>(W[0] * 0x9e3779b97f4a7c15ull ^ W[1]);
}

void LinearExpr::reserve(uint32_t N) {
  assert(Size == 0 && isInline() && "reserve on a non-empty expression");
  if (N > InlineTerms)
    Data = static_cast<Term *>(::operator new(N * sizeof(Term)));
}

void LinearExpr::release() {
  for (uint32_t I = 0; I != Size; ++I)
    Data[I].~Term();
  if (!isInline())
    ::operator delete(Data);
  Data = inlineTerms();
  Size = NumIndex = 0;
}

void LinearExpr::shrinkToInline() {
  if (isInline() || Size > InlineTerms)
    return;
  Term *Heap = Data;
  Data = inlineTerms();
  for (uint32_t I = 0; I != Size; ++I) {
    new (Data + I) Term{std::move(Heap[I].N), Heap[I].Coeff};
    Heap[I].~Term();
  }
  ::operator delete(Heap);
}

// Delegating first makes the object whole, so a throwing copy still
// releases what it built.
LinearExpr::LinearExpr(const LinearExpr &O) : LinearExpr() { *this = O; }

LinearExpr::LinearExpr(LinearExpr &&O) noexcept { takeFrom(O); }

LinearExpr &LinearExpr::operator=(const LinearExpr &O) {
  if (this == &O)
    return *this;
  release();
  reserve(O.Size);
  for (uint32_t I = 0; I != O.Size; ++I)
    push(O.Data[I], O.Data[I].Coeff);
  NumIndex = O.NumIndex;
  Constant = O.Constant;
  return *this;
}

LinearExpr &LinearExpr::operator=(LinearExpr &&O) noexcept {
  if (this != &O) {
    release();
    takeFrom(O);
  }
  return *this;
}

void LinearExpr::takeFrom(LinearExpr &O) noexcept {
  if (O.isInline()) {
    for (uint32_t I = 0; I != O.Size; ++I) {
      new (Data + I) Term{std::move(O.Data[I].N), O.Data[I].Coeff};
      O.Data[I].~Term();
    }
  } else {
    Data = O.Data;
    O.Data = O.inlineTerms();
  }
  Size = O.Size;
  NumIndex = O.NumIndex;
  Constant = O.Constant;
  O.Size = O.NumIndex = 0;
}

const LinearExpr::Term *LinearExpr::find(const Term *B, const Term *E,
                                         std::string_view S) {
  for (; B != E; ++B) {
    int Cmp = B->N.view().compare(S);
    if (Cmp == 0)
      return B;
    if (Cmp > 0)
      break;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

namespace {

[[noreturn]] void coefficientOverflow() {
  raiseFailure(FailureKind::Overflow, "linear expression coefficient overflow");
}

[[noreturn]] void constantOverflow() {
  raiseFailure(FailureKind::Overflow, "linear expression constant overflow");
}

} // namespace

void LinearExpr::mergeRuns(const Term *AB, const Term *AE, const Term *BB,
                           const Term *BE, int64_t Factor, const Term *Skip) {
  while (AB != AE || BB != BE) {
    if (AB == Skip) {
      ++AB;
      continue;
    }
    int Cmp = AB == AE ? 1 : BB == BE ? -1 : AB->N.view().compare(BB->N.view());
    if (Cmp < 0) {
      push(*AB, AB->Coeff);
      ++AB;
      continue;
    }
    // Every term of the second run is one coefficient update.
    FaultInjector::checkpoint();
    std::optional<int64_t> Scaled = checkedMul(BB->Coeff, Factor);
    if (!Scaled)
      coefficientOverflow();
    if (Cmp > 0) {
      push(*BB, *Scaled);
      ++BB;
      continue;
    }
    std::optional<int64_t> Sum = checkedAdd(AB->Coeff, *Scaled);
    if (!Sum)
      coefficientOverflow();
    if (*Sum != 0)
      push(*AB, *Sum);
    ++AB;
    ++BB;
  }
}

/// Raises Overflow when some term or the constant of \p E times
/// \p Factor overflows, in the order scale() would detect it.
static void checkScalable(const LinearExpr &E, int64_t Factor) {
  for (const auto &[Name, Coeff] : E.indexTerms())
    if (!checkedMul(Coeff, Factor))
      coefficientOverflow();
  for (const auto &[Name, Coeff] : E.symbolTerms())
    if (!checkedMul(Coeff, Factor))
      coefficientOverflow();
  if (!checkedMul(E.getConstant(), Factor))
    constantOverflow();
}

LinearExpr LinearExpr::index(std::string_view Name, int64_t Coeff) {
  LinearExpr E;
  if (Coeff == 0)
    return E;
  FaultInjector::checkpoint();
  E.push(Name, Coeff);
  E.NumIndex = 1;
  return E;
}

LinearExpr LinearExpr::symbol(std::string_view Name, int64_t Coeff) {
  LinearExpr E;
  if (Coeff == 0)
    return E;
  FaultInjector::checkpoint();
  E.push(Name, Coeff);
  return E;
}

int64_t LinearExpr::indexCoeff(std::string_view Name) const {
  const Term *T = find(Data, Data + NumIndex, Name);
  return T ? T->Coeff : 0;
}

int64_t LinearExpr::symbolCoeff(std::string_view Name) const {
  const Term *T = find(Data + NumIndex, Data + Size, Name);
  return T ? T->Coeff : 0;
}

std::string_view LinearExpr::singleIndex() const {
  assert(NumIndex == 1 && "expression does not have one index");
  return Data[0].N.view();
}

std::set<std::string> LinearExpr::indexNames() const {
  std::set<std::string> Names;
  for (const auto &[Name, Coeff] : indexTerms())
    Names.emplace(Name);
  return Names;
}

LinearExpr LinearExpr::operator+(const LinearExpr &RHS) const {
  return addScaled(*this, RHS, 1);
}

LinearExpr LinearExpr::operator-(const LinearExpr &RHS) const {
  // The negation of RHS is one arithmetic operation of its own.
  FaultInjector::checkpoint();
  checkScalable(RHS, -1);
  return addScaled(*this, RHS, -1);
}

LinearExpr LinearExpr::operator-() const { return scale(-1); }

LinearExpr LinearExpr::scale(int64_t Factor) const {
  LinearExpr Result;
  if (Factor == 0)
    return Result;
  FaultInjector::checkpoint();
  Result.reserve(Size);
  for (uint32_t I = 0; I != Size; ++I) {
    std::optional<int64_t> P = checkedMul(Data[I].Coeff, Factor);
    if (!P)
      coefficientOverflow();
    Result.push(Data[I], *P);
  }
  std::optional<int64_t> P = checkedMul(Constant, Factor);
  if (!P)
    constantOverflow();
  Result.NumIndex = NumIndex;
  Result.Constant = *P;
  return Result;
}

std::optional<LinearExpr> LinearExpr::divideExactly(int64_t Divisor) const {
  assert(Divisor != 0 && "division by zero");
  for (uint32_t I = 0; I != Size; ++I)
    if (!dividesExactly(Data[I].Coeff, Divisor))
      return std::nullopt;
  if (!dividesExactly(Constant, Divisor))
    return std::nullopt;
  // Division by -1 is a negation: INT64_MIN has no int64 quotient.
  if (Divisor == -1)
    checkScalable(*this, -1);
  LinearExpr Result;
  Result.reserve(Size);
  for (uint32_t I = 0; I != Size; ++I)
    Result.push(Data[I], Data[I].Coeff / Divisor);
  Result.NumIndex = NumIndex;
  Result.Constant = Constant / Divisor;
  return Result;
}

LinearExpr LinearExpr::withoutIndex(std::string_view Name) const {
  const Term *Skip = find(Data, Data + NumIndex, Name);
  if (!Skip)
    return *this;
  LinearExpr Result;
  Result.reserve(Size - 1);
  for (uint32_t I = 0; I != Size; ++I)
    if (Data + I != Skip)
      Result.push(Data[I], Data[I].Coeff);
  Result.NumIndex = NumIndex - 1;
  Result.Constant = Constant;
  return Result;
}

LinearExpr LinearExpr::substituteIndex(std::string_view Name,
                                       const LinearExpr &Replacement) const {
  const Term *Replaced = find(Data, Data + NumIndex, Name);
  if (!Replaced)
    return *this;
  // Scaling the replacement is one operation; its products are all
  // checked before any sum, as scale() followed by + would.
  FaultInjector::checkpoint();
  checkScalable(Replacement, Replaced->Coeff);
  return addScaled(*this, Replacement, Replaced->Coeff, Replaced);
}

LinearExpr LinearExpr::addScaled(const LinearExpr &A, const LinearExpr &B,
                                 int64_t Factor, const Term *Skip) {
  LinearExpr Result;
  Result.reserve(A.Size + B.Size);
  Result.mergeRuns(A.Data, A.Data + A.NumIndex, B.Data, B.Data + B.NumIndex,
                   Factor, Skip);
  Result.NumIndex = Result.Size;
  Result.mergeRuns(A.Data + A.NumIndex, A.Data + A.Size, B.Data + B.NumIndex,
                   B.Data + B.Size, Factor);
  std::optional<int64_t> Sum = checkedAdd(A.Constant, B.Constant * Factor);
  if (!Sum)
    constantOverflow();
  Result.Constant = *Sum;
  Result.shrinkToInline();
  return Result;
}

void LinearExpr::pushTagged(const Term &T, std::string_view Suffix,
                            std::string &Buffer) {
  Buffer.assign(T.N.view());
  Buffer += Suffix;
  push(Buffer, T.Coeff);
}

void LinearExpr::sortTerms() {
  auto ByName = [](const Term &L, const Term &R) {
    return L.N.view() < R.N.view();
  };
  if (!std::is_sorted(Data, Data + Size, ByName))
    std::sort(Data, Data + Size, ByName);
}

LinearExpr LinearExpr::taggedDifference(const LinearExpr &Src,
                                        const LinearExpr &Dst,
                                        std::string_view SinkSuffix) {
  // Dst with its index names tagged.
  LinearExpr Tagged;
  Tagged.reserve(Dst.Size);
  std::string Buffer;
  for (uint32_t I = 0; I != Dst.NumIndex; ++I)
    Tagged.pushTagged(Dst.Data[I], SinkSuffix, Buffer);
  Tagged.sortTerms();
  Tagged.NumIndex = Tagged.Size;
  for (uint32_t I = Dst.NumIndex; I != Dst.Size; ++I)
    Tagged.push(Dst.Data[I], Dst.Data[I].Coeff);
  Tagged.Constant = Dst.Constant;
  return Src - Tagged;
}

LinearExpr LinearExpr::retagIndices(
    const std::function<bool(std::string_view)> &IsRetagged,
    std::string_view Suffix) const {
  // The retagged terms as a sorted run of their own, the rest kept.
  LinearExpr Retagged, Result;
  Retagged.reserve(NumIndex);
  Result.reserve(Size);
  std::string Buffer;
  for (uint32_t I = 0; I != NumIndex; ++I) {
    if (IsRetagged(Data[I].N.view()))
      Retagged.pushTagged(Data[I], Suffix, Buffer);
    else
      Result.push(Data[I], Data[I].Coeff);
  }
  Retagged.sortTerms();
  Result.NumIndex = Result.Size;
  Result.mergeRuns(Data + NumIndex, Data + Size, Retagged.Data,
                   Retagged.Data + Retagged.Size, 1);
  Result.Constant = Constant;
  Result.shrinkToInline();
  return Result;
}

bool LinearExpr::operator==(const LinearExpr &RHS) const {
  if (Constant != RHS.Constant || Size != RHS.Size ||
      NumIndex != RHS.NumIndex)
    return false;
  for (uint32_t I = 0; I != Size; ++I)
    if (Data[I].Coeff != RHS.Data[I].Coeff || !(Data[I].N == RHS.Data[I].N))
      return false;
  return true;
}

bool LinearExpr::operator<(const LinearExpr &RHS) const {
  if (Constant != RHS.Constant)
    return Constant < RHS.Constant;
  TermRange L = indexTerms(), R = RHS.indexTerms();
  if (std::lexicographical_compare(L.begin(), L.end(), R.begin(), R.end()))
    return true;
  if (std::lexicographical_compare(R.begin(), R.end(), L.begin(), L.end()))
    return false;
  L = symbolTerms();
  R = RHS.symbolTerms();
  return std::lexicographical_compare(L.begin(), L.end(), R.begin(), R.end());
}

size_t LinearExpr::hash() const {
  uint64_t H = 0;
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  Mix(static_cast<uint64_t>(Constant));
  Mix(NumIndex);
  for (uint32_t I = 0; I != Size; ++I) {
    Mix(Data[I].N.hash());
    Mix(static_cast<uint64_t>(Data[I].Coeff));
  }
  return static_cast<size_t>(H);
}

std::string LinearExpr::str() const {
  std::string S;
  // Magnitudes go through uint64_t so INT64_MIN renders without
  // negating it.
  auto Magnitude = [](int64_t V) {
    return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
  };
  for (const auto &[Name, Coeff] : TermRange(Data, Data + Size)) {
    if (S.empty()) {
      if (Coeff == -1)
        S += "-";
      else if (Coeff != 1)
        S += std::to_string(Coeff) + "*";
    } else {
      S += Coeff < 0 ? " - " : " + ";
      if (Magnitude(Coeff) != 1)
        S += std::to_string(Magnitude(Coeff)) + "*";
    }
    S += Name;
  }
  if (Constant != 0 || S.empty()) {
    if (S.empty())
      S += std::to_string(Constant);
    else {
      S += Constant < 0 ? " - " : " + ";
      S += std::to_string(Magnitude(Constant));
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// AST -> LinearExpr conversion
//===----------------------------------------------------------------------===//

std::optional<LinearExpr>
pdt::buildLinearExpr(const Expr *E, const std::set<std::string> &IndexNames) {
  assert(E && "null expression");
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return LinearExpr::constant(cast<IntLiteral>(E)->getValue());
  case Expr::Kind::VarRef: {
    const std::string &Name = cast<VarRef>(E)->getName();
    if (IndexNames.count(Name))
      return LinearExpr::index(Name);
    return LinearExpr::symbol(Name);
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    std::optional<LinearExpr> Inner = buildLinearExpr(U->getOperand(),
                                                      IndexNames);
    if (!Inner)
      return std::nullopt;
    return -*Inner;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::optional<LinearExpr> L = buildLinearExpr(B->getLHS(), IndexNames);
    std::optional<LinearExpr> R = buildLinearExpr(B->getRHS(), IndexNames);
    if (!L || !R)
      return std::nullopt;
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return *L + *R;
    case BinaryExpr::Opcode::Sub:
      return *L - *R;
    case BinaryExpr::Opcode::Mul:
      // Affine closure requires one side to be a literal constant.
      if (L->isPureConstant())
        return R->scale(L->getConstant());
      if (R->isPureConstant())
        return L->scale(R->getConstant());
      return std::nullopt;
    case BinaryExpr::Opcode::Div:
      if (R->isPureConstant() && R->getConstant() != 0) {
        // A fully constant quotient truncates like the language's
        // runtime division; affine numerators need exact division to
        // stay affine.
        if (L->isPureConstant()) {
          if (R->getConstant() == -1)
            return -*L; // INT64_MIN / -1 overflows.
          return LinearExpr::constant(L->getConstant() / R->getConstant());
        }
        return L->divideExactly(R->getConstant());
      }
      return std::nullopt;
    }
    pdt_unreachable("covered switch");
  }
  case Expr::Kind::ArrayElement:
    // A subscripted reference inside a subscript is nonlinear for our
    // purposes (index arrays defeat static dependence testing).
    return std::nullopt;
  }
  pdt_unreachable("covered switch");
}

const Expr *pdt::linearToExpr(ASTContext &Ctx, const LinearExpr &E) {
  const Expr *Out = nullptr;
  auto Append = [&Ctx, &Out](std::string_view Name, int64_t Coeff) {
    const Expr *Term = Ctx.getVar(std::string(Name));
    int64_t Abs = Coeff < 0 ? -Coeff : Coeff;
    if (Abs != 1)
      Term = Ctx.getMul(Ctx.getInt(Abs), Term);
    if (!Out)
      Out = Coeff < 0 ? Ctx.getNeg(Term) : Term;
    else if (Coeff < 0)
      Out = Ctx.getSub(Out, Term);
    else
      Out = Ctx.getAdd(Out, Term);
  };
  for (const auto &[Name, Coeff] : E.indexTerms())
    Append(Name, Coeff);
  for (const auto &[Name, Coeff] : E.symbolTerms())
    Append(Name, Coeff);
  int64_t C = E.getConstant();
  if (!Out)
    return Ctx.getInt(C);
  if (C > 0)
    return Ctx.getAdd(Out, Ctx.getInt(C));
  if (C < 0)
    return Ctx.getSub(Out, Ctx.getInt(-C));
  return Out;
}
