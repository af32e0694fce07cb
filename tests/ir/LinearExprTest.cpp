//===- tests/ir/LinearExprTest.cpp -----------------------------------------===//
//
// Unit tests for the canonical affine expression form.
//
//===----------------------------------------------------------------------===//

#include "ir/LinearExpr.h"

#include "ir/AST.h"
#include "support/Failure.h"
#include "support/MathExtras.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace pdt;

TEST(LinearExpr, Construction) {
  LinearExpr Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_TRUE(Zero.isPureConstant());

  LinearExpr C(5);
  EXPECT_EQ(C.getConstant(), 5);
  EXPECT_TRUE(C.isPureConstant());

  LinearExpr I = LinearExpr::index("i", 2);
  EXPECT_EQ(I.indexCoeff("i"), 2);
  EXPECT_EQ(I.indexCoeff("j"), 0);
  EXPECT_EQ(I.numIndices(), 1u);
  EXPECT_FALSE(I.isLoopInvariant());

  LinearExpr N = LinearExpr::symbol("n");
  EXPECT_EQ(N.symbolCoeff("n"), 1);
  EXPECT_TRUE(N.isLoopInvariant());
  EXPECT_FALSE(N.isPureConstant());
}

TEST(LinearExpr, ZeroCoefficientsVanish) {
  LinearExpr E = LinearExpr::index("i", 3) + LinearExpr::index("i", -3);
  EXPECT_TRUE(E.isZero());
  EXPECT_EQ(E.numIndices(), 0u);
}

TEST(LinearExpr, Arithmetic) {
  LinearExpr E = LinearExpr::index("i", 2) + LinearExpr::symbol("n") +
                 LinearExpr(3);
  LinearExpr F = LinearExpr::index("i") - LinearExpr(1);
  LinearExpr Sum = E + F;
  EXPECT_EQ(Sum.indexCoeff("i"), 3);
  EXPECT_EQ(Sum.symbolCoeff("n"), 1);
  EXPECT_EQ(Sum.getConstant(), 2);

  LinearExpr Diff = E - F;
  EXPECT_EQ(Diff.indexCoeff("i"), 1);
  EXPECT_EQ(Diff.getConstant(), 4);

  LinearExpr Scaled = E.scale(-2);
  EXPECT_EQ(Scaled.indexCoeff("i"), -4);
  EXPECT_EQ(Scaled.symbolCoeff("n"), -2);
  EXPECT_EQ(Scaled.getConstant(), -6);
}

TEST(LinearExpr, DivideExactly) {
  LinearExpr E = LinearExpr::index("i", 4) + LinearExpr(6);
  std::optional<LinearExpr> Half = E.divideExactly(2);
  ASSERT_TRUE(Half.has_value());
  EXPECT_EQ(Half->indexCoeff("i"), 2);
  EXPECT_EQ(Half->getConstant(), 3);
  EXPECT_FALSE(E.divideExactly(3).has_value());
}

TEST(LinearExpr, SubstituteIndex) {
  // i + 2j with j := i + 1 becomes 3i + 2.
  LinearExpr E = LinearExpr::index("i") + LinearExpr::index("j", 2);
  LinearExpr Repl = LinearExpr::index("i") + LinearExpr(1);
  LinearExpr S = E.substituteIndex("j", Repl);
  EXPECT_EQ(S.indexCoeff("i"), 3);
  EXPECT_EQ(S.indexCoeff("j"), 0);
  EXPECT_EQ(S.getConstant(), 2);

  // Substituting an absent index is the identity.
  EXPECT_EQ(E.substituteIndex("k", Repl), E);
}

TEST(LinearExpr, SingleIndexAndNames) {
  LinearExpr E = LinearExpr::index("j", -1) + LinearExpr(7);
  EXPECT_EQ(E.singleIndex(), "j");
  LinearExpr F = E + LinearExpr::index("i");
  std::set<std::string> Names = F.indexNames();
  EXPECT_EQ(Names, (std::set<std::string>{"i", "j"}));
  EXPECT_TRUE(F.usesIndex("i"));
  EXPECT_FALSE(F.usesIndex("k"));
}

TEST(LinearExpr, Str) {
  LinearExpr E = LinearExpr::index("i", 2) - LinearExpr::index("j") +
                 LinearExpr::symbol("n") + LinearExpr(3);
  EXPECT_EQ(E.str(), "2*i - j + n + 3");
  EXPECT_EQ(LinearExpr().str(), "0");
  EXPECT_EQ(LinearExpr(-4).str(), "-4");
  EXPECT_EQ(LinearExpr::index("i", -1).str(), "-i");
}

//===----------------------------------------------------------------------===//
// Property test against a std::map reference model
//===----------------------------------------------------------------------===//

namespace {

/// The affine form as two name-ordered maps plus a constant, with its
/// arithmetic written out: the reference the flat term array must
/// match, term order included.
struct RefExpr {
  std::map<std::string, int64_t> Idx, Sym;
  int64_t C = 0;
};

bool refLess(const RefExpr &A, const RefExpr &B) {
  if (A.C != B.C)
    return A.C < B.C;
  if (A.Idx != B.Idx)
    return A.Idx < B.Idx;
  return A.Sym < B.Sym;
}

/// Sum of the terms into \p Out, failing on overflow; zero sums vanish.
bool refAccumulate(std::map<std::string, int64_t> &Out,
                   const std::map<std::string, int64_t> &Terms) {
  for (const auto &[Name, Coeff] : Terms) {
    std::optional<int64_t> Sum = checkedAdd(Out[Name], Coeff);
    if (!Sum)
      return false;
    Out[Name] = *Sum;
    if (*Sum == 0)
      Out.erase(Name);
  }
  return true;
}

std::optional<RefExpr> refAdd(const RefExpr &A, const RefExpr &B) {
  RefExpr R = A;
  std::optional<int64_t> C = checkedAdd(A.C, B.C);
  if (!refAccumulate(R.Idx, B.Idx) || !refAccumulate(R.Sym, B.Sym) || !C)
    return std::nullopt;
  R.C = *C;
  return R;
}

std::optional<RefExpr> refScale(const RefExpr &A, int64_t F) {
  RefExpr R;
  if (F == 0)
    return R;
  for (auto [Map, Out] : {std::pair{&A.Idx, &R.Idx}, {&A.Sym, &R.Sym}})
    for (const auto &[Name, Coeff] : *Map) {
      std::optional<int64_t> P = checkedMul(Coeff, F);
      if (!P)
        return std::nullopt;
      (*Out)[Name] = *P;
    }
  std::optional<int64_t> C = checkedMul(A.C, F);
  if (!C)
    return std::nullopt;
  R.C = *C;
  return R;
}

std::optional<RefExpr> refSub(const RefExpr &A, const RefExpr &B) {
  std::optional<RefExpr> Neg = refScale(B, -1);
  return Neg ? refAdd(A, *Neg) : std::nullopt;
}

/// \p E with the index terms \p Retag selects moved to the symbols,
/// their names suffixed with \p Suffix.
template <typename Pred>
std::optional<RefExpr> refRetag(const RefExpr &E, Pred Retag,
                                const std::string &Suffix) {
  RefExpr R = E;
  std::map<std::string, int64_t> Moved;
  for (const auto &[Name, Coeff] : E.Idx)
    if (Retag(Name)) {
      R.Idx.erase(Name);
      Moved[Name + Suffix] = Coeff;
    }
  if (!refAccumulate(R.Sym, Moved))
    return std::nullopt;
  return R;
}

std::string refStr(const RefExpr &E) {
  auto Magnitude = [](int64_t V) {
    return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
  };
  std::string S;
  for (const auto *Map : {&E.Idx, &E.Sym})
    for (const auto &[Name, Coeff] : *Map) {
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
  if (S.empty())
    return std::to_string(E.C);
  if (E.C != 0)
    S += (E.C < 0 ? " - " : " + ") + std::to_string(Magnitude(E.C));
  return S;
}

/// Checks every observable of \p E against \p R.
void expectMatches(const LinearExpr &E, const RefExpr &R) {
  EXPECT_EQ(E.getConstant(), R.C);
  std::vector<std::pair<std::string, int64_t>> Idx, Sym;
  for (const auto &[Name, Coeff] : E.indexTerms())
    Idx.emplace_back(Name, Coeff);
  for (const auto &[Name, Coeff] : E.symbolTerms())
    Sym.emplace_back(Name, Coeff);
  EXPECT_EQ(Idx, (std::vector<std::pair<std::string, int64_t>>(
                     R.Idx.begin(), R.Idx.end())));
  EXPECT_EQ(Sym, (std::vector<std::pair<std::string, int64_t>>(
                     R.Sym.begin(), R.Sym.end())));
  EXPECT_EQ(E.numIndices(), R.Idx.size());
  EXPECT_EQ(E.isPureConstant(), R.Idx.empty() && R.Sym.empty());
  for (const auto &[Name, Coeff] : R.Idx)
    EXPECT_EQ(E.indexCoeff(Name), Coeff);
  for (const auto &[Name, Coeff] : R.Sym)
    EXPECT_EQ(E.symbolCoeff(Name), Coeff);
  EXPECT_EQ(E.str(), refStr(R));
}

} // namespace

TEST(LinearExpr, MatchesMapReferenceModel) {
  // Short names, names past the 15-byte inline buffer, and tagged
  // names whose order differs from their untagged stems.
  const std::vector<std::string> Names = {
      "i",      "j",  "k",  "n",  "i'", "i#src", "i0", "m",
      "a_very_long_loop_index_name", "another_rather_long_symbol_name",
      "x2345678901234",  "y23456789012345", "z234567890123456"};
  const int64_t Coeffs[] = {1,         -1,        2,         -3,
                            7,         INT64_MAX, INT64_MIN, INT64_MAX - 1,
                            INT64_MIN + 1, 1LL << 62, -(1LL << 62)};
  std::mt19937_64 Rng(20260314);
  auto Pick = [&Rng](size_t N) { return static_cast<size_t>(Rng() % N); };
  auto Coeff = [&]() -> int64_t {
    return Pick(4) == 0 ? Coeffs[Pick(std::size(Coeffs))]
                        : static_cast<int64_t>(Pick(9)) - 4;
  };

  std::vector<std::pair<LinearExpr, RefExpr>> Pool(8);
  bool SawSpill = false, SawOverflow = false, SawCancel = false;
  bool SawLongName = false;
  for (unsigned Step = 0; Step != 20000; ++Step) {
    auto &[A, RA] = Pool[Pick(Pool.size())];
    auto &[B, RB] = Pool[Pick(Pool.size())];
    const std::string &Name = Names[Pick(Names.size())];
    std::optional<LinearExpr> E;
    std::optional<RefExpr> R;
    bool Threw = false;
    try {
      switch (Pick(12)) {
      case 0: {
        int64_t K = Coeff();
        bool IsIndex = Pick(2);
        E = IsIndex ? LinearExpr::index(Name, K) : LinearExpr::symbol(Name, K);
        R.emplace();
        if (K != 0)
          (IsIndex ? R->Idx : R->Sym)[Name] = K;
        SawLongName |= K != 0 && Name.size() > 15;
        break;
      }
      case 1:
        E = LinearExpr::constant(Coeff());
        R.emplace();
        R->C = E->getConstant();
        break;
      case 2:
      case 3:
        R = refAdd(RA, RB);
        E = A + B;
        break;
      case 4:
        R = refSub(RA, RB);
        E = A - B;
        break;
      case 5: {
        int64_t F = Coeff();
        R = refScale(RA, F);
        E = A.scale(F);
        break;
      }
      case 6: {
        int64_t D = Coeff();
        if (D == 0)
          continue;
        bool Exact = dividesExactly(RA.C, D);
        for (const auto *Map : {&RA.Idx, &RA.Sym})
          for (const auto &[N, K] : *Map)
            Exact &= dividesExactly(K, D);
        if (!Exact) {
          ASSERT_FALSE(A.divideExactly(D).has_value());
          continue;
        }
        if (D == -1) {
          R = refScale(RA, -1); // INT64_MIN has no quotient.
        } else {
          R = RA;
          R->C /= D;
          for (auto *Map : {&R->Idx, &R->Sym})
            for (auto &[N, K] : *Map)
              K /= D;
        }
        E = A.divideExactly(D);
        ASSERT_TRUE(E.has_value());
        break;
      }
      case 7: {
        auto It = RA.Idx.find(Name);
        int64_t K = It == RA.Idx.end() ? 0 : It->second;
        if (K == 0) {
          R = RA;
        } else {
          RefExpr Rest = RA;
          Rest.Idx.erase(Name);
          std::optional<RefExpr> Scaled = refScale(RB, K);
          R = Scaled ? refAdd(Rest, *Scaled) : std::nullopt;
        }
        E = A.substituteIndex(Name, B);
        break;
      }
      case 8:
        R = RA;
        R->Idx.erase(Name);
        E = A.withoutIndex(Name);
        break;
      case 10: {
        // Src - Dst' as SubscriptPair::equation() forms it.
        RefExpr Dst = RB;
        Dst.Idx.clear();
        for (const auto &[N, K] : RB.Idx)
          Dst.Idx[N + "'"] = K;
        R = refSub(RA, Dst);
        E = LinearExpr::taggedDifference(A, B, "'");
        break;
      }
      case 11: {
        char Cut = "ajnz"[Pick(4)];
        auto Retag = [Cut](std::string_view N) { return N[0] < Cut; };
        R = refRetag(
            RA, [&](const std::string &N) { return Retag(N); }, "#src");
        E = A.retagIndices(Retag, "#src");
        break;
      }
      case 9:
        EXPECT_EQ(A == B, RA.Idx == RB.Idx && RA.Sym == RB.Sym &&
                              RA.C == RB.C);
        EXPECT_EQ(A < B, refLess(RA, RB));
        EXPECT_EQ(B < A, refLess(RB, RA));
        continue;
      }
    } catch (const AnalysisError &Err) {
      EXPECT_EQ(Err.kind(), FailureKind::Overflow);
      Threw = true;
    }
    ASSERT_EQ(Threw, !R.has_value()) << "step " << Step;
    if (Threw) {
      SawOverflow = true;
      continue;
    }
    expectMatches(*E, *R);
    SawSpill |= E->indexTerms().size() + E->symbolTerms().size() >
                LinearExpr::InlineTerms;
    SawCancel |= RA.Idx.size() + RB.Idx.size() > R->Idx.size() &&
                 R->Idx.empty() && !RA.Idx.empty();
    // Copies and moves of inline and spilled forms alike.
    LinearExpr Copy = *E;
    ASSERT_EQ(Copy, *E);
    auto &Slot = Pool[Pick(Pool.size())];
    Slot.first = std::move(Copy);
    Slot.second = *R;
    expectMatches(Slot.first, Slot.second);
  }
  EXPECT_TRUE(SawSpill);
  EXPECT_TRUE(SawOverflow);
  EXPECT_TRUE(SawCancel);
  EXPECT_TRUE(SawLongName);
}

//===----------------------------------------------------------------------===//
// AST conversion
//===----------------------------------------------------------------------===//

class BuildLinearTest : public ::testing::Test {
protected:
  ASTContext Ctx;
  std::set<std::string> Indices{"i", "j"};
};

TEST_F(BuildLinearTest, SimpleAffine) {
  // 2*i + n - 3
  const Expr *E = Ctx.getSub(
      Ctx.getAdd(Ctx.getMul(Ctx.getInt(2), Ctx.getVar("i")), Ctx.getVar("n")),
      Ctx.getInt(3));
  std::optional<LinearExpr> L = buildLinearExpr(E, Indices);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->indexCoeff("i"), 2);
  EXPECT_EQ(L->symbolCoeff("n"), 1);
  EXPECT_EQ(L->getConstant(), -3);
}

TEST_F(BuildLinearTest, Negation) {
  const Expr *E = Ctx.getNeg(Ctx.getAdd(Ctx.getVar("i"), Ctx.getInt(1)));
  std::optional<LinearExpr> L = buildLinearExpr(E, Indices);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->indexCoeff("i"), -1);
  EXPECT_EQ(L->getConstant(), -1);
}

TEST_F(BuildLinearTest, IndexTimesIndexIsNonlinear) {
  const Expr *E = Ctx.getMul(Ctx.getVar("i"), Ctx.getVar("j"));
  EXPECT_FALSE(buildLinearExpr(E, Indices).has_value());
}

TEST_F(BuildLinearTest, SymbolTimesIndexIsNonlinear) {
  // n*i is not affine with integer coefficients.
  const Expr *E = Ctx.getMul(Ctx.getVar("n"), Ctx.getVar("i"));
  EXPECT_FALSE(buildLinearExpr(E, Indices).has_value());
}

TEST_F(BuildLinearTest, ExactDivision) {
  // (4*i + 2) / 2 = 2*i + 1.
  const Expr *E = Ctx.getBinary(
      BinaryExpr::Opcode::Div,
      Ctx.getAdd(Ctx.getMul(Ctx.getInt(4), Ctx.getVar("i")), Ctx.getInt(2)),
      Ctx.getInt(2));
  std::optional<LinearExpr> L = buildLinearExpr(E, Indices);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->indexCoeff("i"), 2);
  EXPECT_EQ(L->getConstant(), 1);
}

TEST_F(BuildLinearTest, InexactDivisionIsNonlinear) {
  const Expr *E = Ctx.getBinary(
      BinaryExpr::Opcode::Div,
      Ctx.getAdd(Ctx.getMul(Ctx.getInt(4), Ctx.getVar("i")), Ctx.getInt(1)),
      Ctx.getInt(2));
  EXPECT_FALSE(buildLinearExpr(E, Indices).has_value());
}

TEST_F(BuildLinearTest, IndexArrayIsNonlinear) {
  const Expr *E = Ctx.getArrayElement("idx", {Ctx.getVar("i")});
  EXPECT_FALSE(buildLinearExpr(E, Indices).has_value());
}

TEST_F(BuildLinearTest, ConstantFolding) {
  const Expr *E =
      Ctx.getMul(Ctx.getInt(3), Ctx.getSub(Ctx.getInt(5), Ctx.getInt(2)));
  std::optional<LinearExpr> L = buildLinearExpr(E, Indices);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->getConstant(), 9);
  EXPECT_TRUE(L->isPureConstant());
}
