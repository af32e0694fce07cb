//===- tests/core/DependenceTypesTest.cpp ------------------------------------===//
//
// Unit tests for direction sets and dependence vector operations.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceTypes.h"
#include "core/TestStats.h"

#include <gtest/gtest.h>

using namespace pdt;

TEST(DirectionSets, Strings) {
  EXPECT_EQ(directionSetString(DirLT), "<");
  EXPECT_EQ(directionSetString(DirEQ), "=");
  EXPECT_EQ(directionSetString(DirGT), ">");
  EXPECT_EQ(directionSetString(DirAll), "*");
  EXPECT_EQ(directionSetString(DirLT | DirEQ), "<=");
  EXPECT_EQ(directionSetString(DirGT | DirEQ), ">=");
  EXPECT_EQ(directionSetString(DirLT | DirGT), "<>");
  EXPECT_EQ(directionSetString(DirNone), "0");
}

TEST(DirectionSets, ForDistance) {
  EXPECT_EQ(directionForDistance(3), DirLT);
  EXPECT_EQ(directionForDistance(0), DirEQ);
  EXPECT_EQ(directionForDistance(-1), DirGT);
}

TEST(DependenceVectorTest, Construction) {
  DependenceVector V(3);
  EXPECT_EQ(V.depth(), 3u);
  for (unsigned L = 0; L != 3; ++L) {
    EXPECT_EQ(V.Directions[L], DirAll);
    EXPECT_FALSE(V.Distances[L].has_value());
  }
  EXPECT_FALSE(V.isEmpty());
  EXPECT_FALSE(V.isAllEqual());
}

TEST(DependenceVectorTest, Predicates) {
  DependenceVector V(2);
  V.Directions = {DirEQ, DirEQ};
  EXPECT_TRUE(V.isAllEqual());
  EXPECT_EQ(V.firstNonEqualLevel(), std::nullopt);

  V.Directions = {DirEQ, DirLT};
  EXPECT_FALSE(V.isAllEqual());
  EXPECT_EQ(V.firstNonEqualLevel(), std::optional<unsigned>(1));

  V.Directions = {DirNone, DirLT};
  EXPECT_TRUE(V.isEmpty());
}

TEST(DependenceVectorTest, IntersectDirections) {
  DependenceVector A(2), B(2);
  A.Directions = {static_cast<DirectionSet>(DirLT | DirEQ), DirAll};
  B.Directions = {static_cast<DirectionSet>(DirEQ | DirGT), DirLT};
  DependenceVector C = A.intersectWith(B);
  EXPECT_EQ(C.Directions[0], DirEQ);
  EXPECT_EQ(C.Directions[1], DirLT);
}

TEST(DependenceVectorTest, IntersectDistances) {
  DependenceVector A(1), B(1);
  A.Distances[0] = 2;
  A.Directions[0] = DirLT;
  B.Directions[0] = DirAll;
  DependenceVector C = A.intersectWith(B);
  EXPECT_EQ(C.Distances[0], std::optional<int64_t>(2));
  EXPECT_EQ(C.Directions[0], DirLT);

  // Conflicting exact distances empty the level.
  B.Distances[0] = 3;
  B.Directions[0] = DirLT;
  EXPECT_TRUE(A.intersectWith(B).isEmpty());
}

TEST(DependenceVectorTest, DistanceDirectionConsistency) {
  // A distance of 2 is incompatible with a '>'-only direction set.
  DependenceVector A(1), B(1);
  A.Distances[0] = 2;
  A.Directions[0] = DirLT;
  B.Directions[0] = DirGT;
  EXPECT_TRUE(A.intersectWith(B).isEmpty());
}

TEST(DependenceVectorTest, Str) {
  DependenceVector V(3);
  V.Directions = {DirLT, DirEQ, DirAll};
  V.Distances[0] = 1;
  EXPECT_EQ(V.str(), "(1, =, *)");
}

TEST(VectorSets, IntersectFiltersEmpties) {
  DependenceVector A(1), B(1), F(1);
  A.Directions = {DirLT};
  B.Directions = {DirGT};
  F.Directions = {static_cast<DirectionSet>(DirLT | DirEQ)};
  std::vector<DependenceVector> Out = {A, B};
  refineVectorSet(Out, F);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Directions[0], DirLT);
}

TEST(Names, TestKindNames) {
  // Every enumerator has a printable, distinct name.
  std::set<std::string> Seen;
  for (unsigned K = 0; K != NumTestKinds; ++K) {
    const char *Name = testKindName(static_cast<TestKind>(K));
    ASSERT_NE(Name, nullptr);
    EXPECT_TRUE(Seen.insert(Name).second) << Name;
  }
}

TEST(Names, DependenceKindNames) {
  EXPECT_STREQ(dependenceKindName(DependenceKind::Flow), "flow");
  EXPECT_STREQ(dependenceKindName(DependenceKind::Anti), "anti");
  EXPECT_STREQ(dependenceKindName(DependenceKind::Output), "output");
  EXPECT_STREQ(dependenceKindName(DependenceKind::Input), "input");
}

TEST(TestStatsAggregation, PlusEqualsSumsEverything) {
  TestStats A, B;
  A.noteApplication(TestKind::StrongSIV);
  A.noteIndependence(TestKind::StrongSIV);
  A.ReferencePairs = 3;
  A.DimensionHistogram[1] = 2;
  A.SeparableSubscripts = 4;
  B.noteApplication(TestKind::StrongSIV);
  B.noteApplication(TestKind::Delta);
  B.ReferencePairs = 5;
  B.CoupledSubscripts = 7;
  B.CoupledGroups = 1;
  A += B;
  EXPECT_EQ(A.applications(TestKind::StrongSIV), 2u);
  EXPECT_EQ(A.applications(TestKind::Delta), 1u);
  EXPECT_EQ(A.independences(TestKind::StrongSIV), 1u);
  EXPECT_EQ(A.ReferencePairs, 8u);
  EXPECT_EQ(A.DimensionHistogram[1], 2u);
  EXPECT_EQ(A.SeparableSubscripts, 4u);
  EXPECT_EQ(A.CoupledSubscripts, 7u);
  EXPECT_EQ(A.CoupledGroups, 1u);
}
