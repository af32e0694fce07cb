//===- fuzz/FuzzKernel.cpp - Differential-fuzzer kernel model -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzKernel.h"

#include "ir/LinearExpr.h"
#include "ir/PrettyPrinter.h"
#include "parser/Parser.h"
#include "support/Casting.h"
#include "support/MathExtras.h"

#include <cassert>
#include <sstream>

using namespace pdt;

const char *pdt::fuzzStratumName(FuzzStratum S) {
  switch (S) {
  case FuzzStratum::ZIV:
    return "ziv";
  case FuzzStratum::StrongSIV:
    return "strong-siv";
  case FuzzStratum::WeakZeroSIV:
    return "weak-zero-siv";
  case FuzzStratum::WeakCrossingSIV:
    return "weak-crossing-siv";
  case FuzzStratum::ExactSIV:
    return "exact-siv";
  case FuzzStratum::RDIV:
    return "rdiv";
  case FuzzStratum::CoupledMIV:
    return "coupled-miv";
  case FuzzStratum::SymbolicBound:
    return "symbolic-bound";
  case FuzzStratum::Degenerate:
    return "degenerate";
  case FuzzStratum::NearOverflow:
    return "near-overflow";
  }
  return "unknown";
}

std::optional<FuzzStratum> pdt::fuzzStratumFromName(const std::string &Name) {
  for (unsigned S = 0; S != NumFuzzStrata; ++S)
    if (Name == fuzzStratumName(static_cast<FuzzStratum>(S)))
      return static_cast<FuzzStratum>(S);
  return std::nullopt;
}

std::vector<FuzzPair> pdt::enumerateFuzzPairs(const FuzzKernel &K) {
  // Access numbering: statement S owns accesses 2*S (write) and
  // 2*S + 1 (read).
  unsigned NumAccesses = 2 * K.Stmts.size();
  auto SubscriptsOf = [&K](unsigned Access) -> const std::vector<LinearExpr> & {
    const FuzzStmt &S = K.Stmts[Access / 2];
    return Access % 2 == 0 ? S.Write : S.Read;
  };
  auto IsWrite = [](unsigned Access) { return Access % 2 == 0; };

  std::vector<FuzzPair> Pairs;
  for (unsigned I = 0; I != NumAccesses; ++I) {
    for (unsigned J = I; J != NumAccesses; ++J) {
      if (!IsWrite(I) && !IsWrite(J))
        continue; // Input dependences carry no soundness obligation.
      if (I == J && !IsWrite(I))
        continue;
      FuzzPair P;
      P.SrcAccess = I;
      P.SnkAccess = J;
      const std::vector<LinearExpr> &Src = SubscriptsOf(I);
      const std::vector<LinearExpr> &Snk = SubscriptsOf(J);
      assert(Src.size() == Snk.size() && "rank drift within a kernel");
      for (unsigned D = 0; D != Src.size(); ++D)
        P.Subscripts.emplace_back(Src[D], Snk[D], D);
      Pairs.push_back(std::move(P));
    }
  }
  return Pairs;
}

LoopNestContext pdt::symbolicFuzzContext(const FuzzKernel &K) {
  std::vector<LoopBounds> Loops;
  Loops.reserve(K.Loops.size());
  for (const FuzzLoop &L : K.Loops) {
    LoopBounds B;
    B.Index = L.Index;
    B.Lower = LinearExpr(L.Lower);
    B.Upper = L.UpperSymbol.empty() ? LinearExpr(L.Upper)
                                    : LinearExpr::symbol(L.UpperSymbol);
    Loops.push_back(std::move(B));
  }
  // Every sampled symbol value is >= 1 by construction, so the
  // standard array-extent assumption is consistent with the
  // instantiation the Oracle checks.
  SymbolRangeMap Symbols;
  for (const auto &[Name, Value] : K.SymbolValues) {
    (void)Value;
    Symbols[Name] = Interval(1, std::nullopt);
  }
  return LoopNestContext(std::move(Loops), std::move(Symbols));
}

std::optional<LinearExpr>
pdt::concretizeFuzzExpr(const LinearExpr &E,
                        const std::map<std::string, int64_t> &SymbolValues) {
  int64_t Constant = E.getConstant();
  for (const auto &[Name, Coeff] : E.symbolTerms()) {
    auto It = SymbolValues.find(std::string(Name));
    if (It == SymbolValues.end())
      return std::nullopt;
    std::optional<int64_t> Term = checkedMul(Coeff, It->second);
    if (!Term)
      return std::nullopt;
    std::optional<int64_t> Sum = checkedAdd(Constant, *Term);
    if (!Sum)
      return std::nullopt;
    Constant = *Sum;
  }
  LinearExpr Out(Constant);
  for (const auto &[Name, Coeff] : E.indexTerms())
    Out = Out + LinearExpr::index(Name, Coeff);
  return Out;
}

std::optional<ConcreteFuzzPair>
pdt::concretizeFuzzPair(const FuzzKernel &K, const FuzzPair &Pair) {
  ConcreteFuzzPair Out;
  std::vector<LoopBounds> Loops;
  for (const FuzzLoop &L : K.Loops) {
    LoopBounds B;
    B.Index = L.Index;
    B.Lower = LinearExpr(L.Lower);
    if (L.UpperSymbol.empty()) {
      B.Upper = LinearExpr(L.Upper);
    } else {
      auto It = K.SymbolValues.find(L.UpperSymbol);
      if (It == K.SymbolValues.end())
        return std::nullopt;
      B.Upper = LinearExpr(It->second);
    }
    Loops.push_back(std::move(B));
  }
  for (const SubscriptPair &S : Pair.Subscripts) {
    std::optional<LinearExpr> Src = concretizeFuzzExpr(S.Src, K.SymbolValues);
    std::optional<LinearExpr> Dst = concretizeFuzzExpr(S.Dst, K.SymbolValues);
    if (!Src || !Dst)
      return std::nullopt;
    Out.Subscripts.emplace_back(std::move(*Src), std::move(*Dst), S.Dim);
  }
  Out.Ctx = LoopNestContext(std::move(Loops), SymbolRangeMap());
  return Out;
}

Program pdt::fuzzKernelToProgram(const FuzzKernel &K) {
  Program P;
  ASTContext &Ctx = *P.Context;
  P.Name = "fuzz-" + std::to_string(K.Seed) + "-" + std::to_string(K.Index);

  std::vector<const Stmt *> Body;
  for (const FuzzStmt &S : K.Stmts) {
    std::vector<const Expr *> WriteSubs, ReadSubs;
    for (const LinearExpr &E : S.Write)
      WriteSubs.push_back(linearToExpr(Ctx, E));
    for (const LinearExpr &E : S.Read)
      ReadSubs.push_back(linearToExpr(Ctx, E));
    const ArrayElement *Target = Ctx.getArrayElement("a", std::move(WriteSubs));
    const Expr *Value =
        Ctx.getAdd(Ctx.getArrayElement("a", std::move(ReadSubs)), Ctx.getInt(1));
    Body.push_back(Ctx.createArrayAssign(Target, Value));
  }

  // Wrap innermost-out so the result is a perfect nest.
  for (auto It = K.Loops.rbegin(); It != K.Loops.rend(); ++It) {
    const Expr *Upper = It->UpperSymbol.empty()
                            ? static_cast<const Expr *>(Ctx.getInt(It->Upper))
                            : Ctx.getVar(It->UpperSymbol);
    const DoLoop *L = Ctx.createDoLoop(It->Index, Ctx.getInt(It->Lower), Upper,
                                       Ctx.getInt(1), std::move(Body));
    Body = {L};
  }
  P.TopLevel = std::move(Body);
  return P;
}

std::string pdt::fuzzKernelToSource(const FuzzKernel &K) {
  std::ostringstream OS;
  OS << "! pdt-fuzz seed=" << K.Seed << " index=" << K.Index
     << " stratum=" << fuzzStratumName(K.Stratum) << "\n";
  for (const auto &[Name, Value] : K.SymbolValues)
    OS << "! pdt-fuzz-symbol " << Name << " = " << Value << "\n";
  OS << programToString(fuzzKernelToProgram(K));
  return OS.str();
}

namespace {

/// Finds the single array read inside a statement value of the form
/// `a(...) + <constant>` (any expression tree with exactly one array
/// element works).
const ArrayElement *findSingleRead(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::ArrayElement:
    return cast<ArrayElement>(E);
  case Expr::Kind::IntLiteral:
  case Expr::Kind::VarRef:
    return nullptr;
  case Expr::Kind::Unary:
    return findSingleRead(cast<UnaryExpr>(E)->getOperand());
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    const ArrayElement *L = findSingleRead(B->getLHS());
    const ArrayElement *R = findSingleRead(B->getRHS());
    if (L && R)
      return nullptr; // More than one read: not a fuzz kernel shape.
    return L ? L : R;
  }
  }
  return nullptr;
}

} // namespace

std::optional<FuzzKernel> pdt::parseFuzzKernelSource(const std::string &Source) {
  FuzzKernel K;

  // Metadata lines are plain comments to the front end; scan them here.
  std::istringstream Lines(Source);
  std::string Line;
  while (std::getline(Lines, Line)) {
    std::istringstream LS(Line);
    std::string Bang, Tag;
    LS >> Bang >> Tag;
    if (Bang != "!")
      continue;
    if (Tag == "pdt-fuzz") {
      std::string Field;
      while (LS >> Field) {
        size_t Eq = Field.find('=');
        if (Eq == std::string::npos)
          continue;
        std::string Key = Field.substr(0, Eq), Val = Field.substr(Eq + 1);
        if (Key == "seed")
          std::istringstream(Val) >> K.Seed;
        else if (Key == "index")
          std::istringstream(Val) >> K.Index;
        else if (Key == "stratum")
          if (std::optional<FuzzStratum> S = fuzzStratumFromName(Val))
            K.Stratum = *S;
      }
    } else if (Tag == "pdt-fuzz-symbol") {
      std::string Name, Eq;
      int64_t Value;
      if (LS >> Name >> Eq >> Value && Eq == "=")
        K.SymbolValues[Name] = Value;
    }
  }

  ParseResult R = parseProgram(Source, "fuzz-repro");
  if (!R.succeeded())
    return std::nullopt;
  const Program &P = *R.Prog;

  // Descend the perfect nest: a chain of single-child DO loops ending
  // in a flat list of array assignments.
  std::set<std::string> IndexNames;
  const std::vector<const Stmt *> *Body = &P.TopLevel;
  while (Body->size() == 1 && isa<DoLoop>((*Body)[0])) {
    const auto *L = cast<DoLoop>((*Body)[0]);
    std::optional<int64_t> Step = evaluateConstantExpr(L->getStep());
    std::optional<int64_t> Lower = evaluateConstantExpr(L->getLower());
    if (!Step || *Step != 1 || !Lower)
      return std::nullopt;
    FuzzLoop FL;
    FL.Index = L->getIndexName();
    FL.Lower = *Lower;
    if (std::optional<int64_t> Upper = evaluateConstantExpr(L->getUpper())) {
      FL.Upper = *Upper;
    } else if (const auto *V = dyn_cast<VarRef>(L->getUpper())) {
      FL.UpperSymbol = V->getName();
      auto It = K.SymbolValues.find(V->getName());
      if (It == K.SymbolValues.end())
        return std::nullopt; // Symbol with no sampled value.
      FL.Upper = It->second;
    } else {
      return std::nullopt;
    }
    IndexNames.insert(FL.Index);
    K.Loops.push_back(std::move(FL));
    Body = &L->getBody();
  }

  std::string Array;
  for (const Stmt *S : *Body) {
    const auto *A = dyn_cast<AssignStmt>(S);
    if (!A || !A->isArrayAssign())
      return std::nullopt;
    const ArrayElement *Write = A->getArrayTarget();
    const ArrayElement *Read = findSingleRead(A->getValue());
    if (!Read || Read->getArrayName() != Write->getArrayName() ||
        Read->getNumDims() != Write->getNumDims())
      return std::nullopt;
    if (Array.empty())
      Array = Write->getArrayName();
    else if (Array != Write->getArrayName())
      return std::nullopt;
    FuzzStmt FS;
    for (const Expr *Sub : Write->getSubscripts()) {
      std::optional<LinearExpr> E = buildLinearExpr(Sub, IndexNames);
      if (!E)
        return std::nullopt;
      FS.Write.push_back(std::move(*E));
    }
    for (const Expr *Sub : Read->getSubscripts()) {
      std::optional<LinearExpr> E = buildLinearExpr(Sub, IndexNames);
      if (!E)
        return std::nullopt;
      FS.Read.push_back(std::move(*E));
    }
    K.Stmts.push_back(std::move(FS));
  }
  if (K.Stmts.empty())
    return std::nullopt;
  unsigned Rank = K.Stmts[0].Write.size();
  for (const FuzzStmt &S : K.Stmts)
    if (S.Write.size() != Rank || S.Read.size() != Rank)
      return std::nullopt;

  // Drop sampled values for symbols the kernel no longer mentions so
  // equality against a freshly generated kernel is structural.
  std::map<std::string, int64_t> Used;
  for (const FuzzLoop &L : K.Loops)
    if (!L.UpperSymbol.empty())
      Used.insert({L.UpperSymbol, K.SymbolValues.at(L.UpperSymbol)});
  for (const FuzzStmt &S : K.Stmts)
    for (const std::vector<LinearExpr> *Side : {&S.Write, &S.Read})
      for (const LinearExpr &E : *Side)
        for (const auto &[Name, Coeff] : E.symbolTerms()) {
          (void)Coeff;
          auto It = K.SymbolValues.find(std::string(Name));
          if (It == K.SymbolValues.end())
            return std::nullopt;
          Used.insert(*It);
        }
  K.SymbolValues = std::move(Used);
  return K;
}
