//===- tests/driver/WideBoundTest.cpp -------------------------------------===//
//
// Regression tests for loops whose constant bounds sit near the ends of
// int64: arithmetic on such a bound must not wrap and then prove a
// dependent loop parallel.
//
//===----------------------------------------------------------------------===//

#include "driver/Analyzer.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

using namespace pdt;

namespace {

struct WideBoundKernel {
  const char *Name;
  const char *Source;
};

const WideBoundKernel WideBoundKernels[] = {
    // Weak-crossing SIV: 2 * U of the crossing-point check wrapped.
    {"WeakCrossingNearMax",
     "do i = 1, 9223372036854775806\n  a(i) = a(10 - i)\nend do\n"},
    // Normalization: U - L + 1 wrapped negative, the nest looked empty.
    {"ShiftedExtentNearMax",
     "do i = -9223372036854775806, 9223372036854775806\n"
     "  a(i+1) = a(i)\nend do\n"},
    {"ShiftedExtentTwoToThe62",
     "do i = -4611686018427387904, 4611686018427387904\n"
     "  a(i+1) = a(i)\nend do\n"},
    // Constant folding negated INT64_MIN.
    {"NegatedInt64Min",
     "do i = 1, -(-9223372036854775807 - 1)\n  a(i+1) = a(i)\nend do\n"},
};

// Test names print the kernel's name, not its pointers.
void PrintTo(const WideBoundKernel &K, std::ostream *OS) { *OS << K.Name; }

class WideBoundTest
    : public ::testing::TestWithParam<std::tuple<WideBoundKernel, bool>> {};

} // namespace

TEST_P(WideBoundTest, ReportsCarriedFlowDependence) {
  const auto &[Kernel, Normalize] = GetParam();
  AnalyzerOptions Options;
  Options.Normalize = Normalize;
  AnalysisResult R = analyzeSource(Kernel.Source, Kernel.Name, Options);
  ASSERT_TRUE(R.Parsed);

  bool CarriedFlow = false;
  for (const Dependence &D : R.Graph.dependences())
    if (D.Kind == DependenceKind::Flow && D.CarriedLevel)
      CarriedFlow = true;
  EXPECT_TRUE(CarriedFlow) << R.Graph.str();
  for (const DoLoop *L : R.Graph.allLoops())
    EXPECT_FALSE(R.Graph.isLoopParallel(L)) << R.Graph.str();
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, WideBoundTest,
    ::testing::Combine(::testing::ValuesIn(WideBoundKernels),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<WideBoundTest::ParamType> &Info) {
      return std::string(std::get<0>(Info.param).Name) +
             (std::get<1>(Info.param) ? "Normalized" : "AsWritten");
    });
