//===- tests/support/IntervalTest.cpp --------------------------------------===//
//
// Unit tests for possibly-unbounded integer intervals.
//
//===----------------------------------------------------------------------===//

#include "support/Interval.h"

#include <gtest/gtest.h>

using namespace pdt;

TEST(Interval, Basics) {
  Interval Full = Interval::full();
  EXPECT_FALSE(Full.isEmpty());
  EXPECT_FALSE(Full.isFinite());
  EXPECT_TRUE(Full.contains(0));
  EXPECT_TRUE(Full.contains(INT64_MAX));

  Interval P = Interval::point(5);
  EXPECT_TRUE(P.isPoint());
  EXPECT_TRUE(P.contains(5));
  EXPECT_FALSE(P.contains(4));

  EXPECT_TRUE(Interval::empty().isEmpty());
  EXPECT_EQ(Interval::empty().size(), std::optional<int64_t>(0));
}

TEST(Interval, Size) {
  EXPECT_EQ(Interval(1, 10).size(), std::optional<int64_t>(10));
  EXPECT_EQ(Interval(0, 0).size(), std::optional<int64_t>(1));
  EXPECT_EQ(Interval(1, std::nullopt).size(), std::nullopt);
  // Bounds at the int64 limits: the extent saturates, never wraps.
  EXPECT_EQ(Interval(INT64_MIN, INT64_MIN).size(), std::optional<int64_t>(1));
  EXPECT_EQ(Interval(INT64_MIN, -1).size(), std::optional<int64_t>(INT64_MAX));
  EXPECT_EQ(Interval(INT64_MIN, INT64_MAX).size(),
            std::optional<int64_t>(INT64_MAX));
  EXPECT_EQ(Interval(-1, INT64_MAX).size(), std::optional<int64_t>(INT64_MAX));
}

TEST(Interval, Addition) {
  EXPECT_EQ(Interval(1, 2) + Interval(10, 20), Interval(11, 22));
  EXPECT_EQ(Interval(1, std::nullopt) + Interval(1, 1),
            Interval(2, std::nullopt));
  EXPECT_TRUE((Interval::empty() + Interval(1, 2)).isEmpty());
}

TEST(Interval, SubtractionAndNegation) {
  EXPECT_EQ(Interval(5, 8) - Interval(1, 2), Interval(3, 7));
  EXPECT_EQ(Interval(1, 2).negate(), Interval(-2, -1));
  EXPECT_EQ(Interval(1, std::nullopt).negate(),
            Interval(std::nullopt, -1));
}

TEST(Interval, Scale) {
  EXPECT_EQ(Interval(1, 3).scale(2), Interval(2, 6));
  EXPECT_EQ(Interval(1, 3).scale(-2), Interval(-6, -2));
  EXPECT_EQ(Interval(1, 3).scale(0), Interval::point(0));
  // Negative scaling of a half-line flips the unbounded side.
  EXPECT_EQ(Interval(1, std::nullopt).scale(-1),
            Interval(std::nullopt, -1));
}

TEST(Interval, Intersect) {
  EXPECT_EQ(Interval(1, 10).intersect(Interval(5, 20)), Interval(5, 10));
  EXPECT_TRUE(Interval(1, 4).intersect(Interval(5, 20)).isEmpty());
  EXPECT_EQ(Interval::full().intersect(Interval(5, 20)), Interval(5, 20));
  EXPECT_EQ(Interval(std::nullopt, 7).intersect(Interval(3, std::nullopt)),
            Interval(3, 7));
}

TEST(Interval, Hull) {
  EXPECT_EQ(Interval(1, 2).hull(Interval(5, 6)), Interval(1, 6));
  EXPECT_EQ(Interval(1, 2).hull(Interval::empty()), Interval(1, 2));
  EXPECT_EQ(Interval(1, 2).hull(Interval(0, std::nullopt)),
            Interval(0, std::nullopt));
}

TEST(Interval, SaturationIsConservative) {
  Interval Huge(INT64_MAX - 1, INT64_MAX - 1);
  Interval Sum = Huge + Huge;
  // Saturates to INT64_MAX rather than wrapping negative.
  EXPECT_TRUE(Sum.contains(INT64_MAX));
}

TEST(Interval, Str) {
  EXPECT_EQ(Interval(1, 2).str(), "[1, 2]");
  EXPECT_EQ(Interval::full().str(), "[-inf, +inf]");
  EXPECT_EQ(Interval::empty().str(), "[empty]");
}
