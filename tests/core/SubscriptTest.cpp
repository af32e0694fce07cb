//===- tests/core/SubscriptTest.cpp -----------------------------------------===//
//
// Unit tests for subscript classification and partitioning.
//
//===----------------------------------------------------------------------===//

#include "core/Partition.h"
#include "core/Subscript.h"

#include <gtest/gtest.h>

using namespace pdt;

namespace {

LinearExpr idx(const char *N, int64_t C = 1) {
  return LinearExpr::index(N, C);
}

} // namespace

TEST(Subscript, TagNames) {
  EXPECT_EQ(sinkName("i"), "i'");
  EXPECT_TRUE(isSinkName("i'"));
  EXPECT_FALSE(isSinkName("i"));
  EXPECT_EQ(baseName("i'"), "i");
  EXPECT_EQ(baseName("i"), "i");
}

TEST(Subscript, ClassifyZIV) {
  SubscriptPair S(LinearExpr(3), LinearExpr::symbol("n"));
  EXPECT_EQ(S.classify(), SubscriptClass::ZIV);
  EXPECT_EQ(S.shape(), SubscriptShape::ZIV);
}

TEST(Subscript, ClassifyStrongSIV) {
  // <2i + 1, 2i - 1>.
  SubscriptPair S(idx("i", 2) + LinearExpr(1), idx("i", 2) - LinearExpr(1));
  EXPECT_EQ(S.classify(), SubscriptClass::SIV);
  EXPECT_EQ(S.shape(), SubscriptShape::StrongSIV);
}

TEST(Subscript, ClassifyWeakZeroSIV) {
  SubscriptPair S(idx("i"), LinearExpr(4));
  EXPECT_EQ(S.shape(), SubscriptShape::WeakZeroSIV);
  SubscriptPair T(LinearExpr(4), idx("i"));
  EXPECT_EQ(T.shape(), SubscriptShape::WeakZeroSIV);
}

TEST(Subscript, ClassifyWeakCrossingSIV) {
  // <i, -i + n>, i.e. a2 = -a1.
  SubscriptPair S(idx("i"), idx("i", -1) + LinearExpr::symbol("n"));
  EXPECT_EQ(S.shape(), SubscriptShape::WeakCrossingSIV);
}

TEST(Subscript, ClassifyGeneralSIV) {
  SubscriptPair S(idx("i", 2), idx("i", 3) + LinearExpr(1));
  EXPECT_EQ(S.classify(), SubscriptClass::SIV);
  EXPECT_EQ(S.shape(), SubscriptShape::GeneralSIV);
}

TEST(Subscript, ClassifyRDIV) {
  SubscriptPair S(idx("i", 2) + LinearExpr(1), idx("j"));
  EXPECT_EQ(S.classify(), SubscriptClass::MIV);
  EXPECT_EQ(S.shape(), SubscriptShape::RDIV);
}

TEST(Subscript, ClassifyMIV) {
  SubscriptPair S(idx("i") + idx("j"), idx("i"));
  EXPECT_EQ(S.classify(), SubscriptClass::MIV);
  EXPECT_EQ(S.shape(), SubscriptShape::GeneralMIV);
}

TEST(Subscript, EquationTagsSinkIndices) {
  // <i + 1, i>  =>  i - i' + 1 = 0.
  SubscriptPair S(idx("i") + LinearExpr(1), idx("i"));
  LinearExpr Eq = S.equation();
  EXPECT_EQ(Eq.indexCoeff("i"), 1);
  EXPECT_EQ(Eq.indexCoeff("i'"), -1);
  EXPECT_EQ(Eq.getConstant(), 1);
}

TEST(Subscript, EquationKeepsSymbols) {
  SubscriptPair S(idx("i") + LinearExpr::symbol("n"), idx("i"));
  LinearExpr Eq = S.equation();
  EXPECT_EQ(Eq.symbolCoeff("n"), 1);
}

TEST(Subscript, ShapeAfterPropagationSingleVariable) {
  // 2*i + 4 = 0 (e.g. after substituting i' := i + d): weak-zero form.
  LinearExpr Eq = idx("i", 2) + LinearExpr(4);
  EXPECT_EQ(shapeOfEquation(Eq), SubscriptShape::WeakZeroSIV);
}

TEST(Subscript, ShapeMixedTagsSameBase) {
  // i + i' = 10 stays SIV (weak-crossing shape).
  LinearExpr Eq = idx("i") + idx("i'") - LinearExpr(10);
  EXPECT_EQ(classifyEquation(Eq), SubscriptClass::SIV);
  EXPECT_EQ(shapeOfEquation(Eq), SubscriptShape::WeakCrossingSIV);
}

TEST(Subscript, IndicesUnion) {
  SubscriptPair S(idx("i") + idx("k"), idx("j"));
  EXPECT_EQ(S.indices(), (std::set<std::string>{"i", "j", "k"}));
}

//===----------------------------------------------------------------------===//
// Partitioning
//===----------------------------------------------------------------------===//

TEST(Partition, AllSeparable) {
  // A(i, j): subscripts use distinct indices.
  std::vector<SubscriptPair> Subs = {SubscriptPair(idx("i"), idx("i"), 0),
                                     SubscriptPair(idx("j"), idx("j"), 1)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_TRUE(Parts[0].isSeparable());
  EXPECT_TRUE(Parts[1].isSeparable());
}

TEST(Partition, CoupledPair) {
  // A(i, i+1): both subscripts use i.
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(idx("i"), idx("i") + LinearExpr(1), 0),
      SubscriptPair(idx("i") + LinearExpr(1), idx("i"), 1)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_FALSE(Parts[0].isSeparable());
  EXPECT_EQ(Parts[0].Positions, (std::vector<unsigned>{0, 1}));
}

TEST(Partition, PaperExample) {
  // Paper section 2.2: A(i, j, j) in a nest over i, j, k: the first
  // subscript is separable, the second and third are coupled by j.
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(idx("i"), idx("i"), 0),
      SubscriptPair(idx("j"), idx("j") + LinearExpr(1), 1),
      SubscriptPair(idx("j", 2), idx("j"), 2)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_TRUE(Parts[0].isSeparable());
  EXPECT_FALSE(Parts[1].isSeparable());
  EXPECT_EQ(Parts[1].Positions, (std::vector<unsigned>{1, 2}));
  std::set<std::string> Indices;
  for (unsigned Pos : Parts[1].Positions)
    Indices.merge(Subs[Pos].indices());
  EXPECT_EQ(Indices, (std::set<std::string>{"j"}));
}

TEST(Partition, TransitiveCoupling) {
  // (i,j), (j,k), (k,l): one minimal group through shared indices.
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(idx("i"), idx("j"), 0),
      SubscriptPair(idx("j"), idx("k"), 1),
      SubscriptPair(idx("k"), idx("l"), 2)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0].Positions.size(), 3u);
}

TEST(Partition, ZIVIsVacuouslySeparable) {
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(LinearExpr(1), LinearExpr(2), 0),
      SubscriptPair(idx("i"), idx("i"), 1)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_TRUE(Parts[0].isSeparable());
  EXPECT_EQ(Parts[0].Positions, (std::vector<unsigned>{0}));
  EXPECT_TRUE(Subs[0].indices().empty());
}

TEST(Partition, DeterministicOrder) {
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(idx("k"), idx("k"), 0),
      SubscriptPair(idx("a"), idx("a"), 1),
      SubscriptPair(idx("k"), idx("a"), 2)};
  std::vector<SubscriptPartition> Parts = partitionSubscripts(Subs);
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0].Positions, (std::vector<unsigned>{0, 1, 2}));
}
