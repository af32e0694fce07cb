//===- tests/driver/CorpusTest.cpp --------------------------------------------===//
//
// Tests over the built-in corpus: every kernel parses and analyzes;
// the paper-example kernels produce the verdicts the paper describes;
// the suite reports have the expected shape.
//
//===----------------------------------------------------------------------===//

#include "driver/Corpus.h"

#include "driver/Analyzer.h"
#include "driver/TableReport.h"
#include "transforms/Parallelizer.h"

#include <gtest/gtest.h>

using namespace pdt;

namespace {

AnalysisResult analyzeKernel(const std::string &Name) {
  const CorpusKernel *K = findKernel(Name);
  EXPECT_NE(K, nullptr) << Name;
  AnalysisResult R = analyzeSource(K->Source, K->Name);
  EXPECT_TRUE(R.Parsed) << Name;
  return R;
}

} // namespace

class CorpusKernelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CorpusKernelTest, ParsesAndAnalyzes) {
  const CorpusKernel &K = corpus()[GetParam()];
  AnalysisResult R = analyzeSource(K.Source, K.Name);
  ASSERT_TRUE(R.Parsed) << K.Name << ": "
                        << (R.Diagnostics.empty()
                                ? std::string()
                                : R.Diagnostics[0].str());
  // Analysis must at least have looked at some reference pair or the
  // kernel has no testable array pattern (allowed for pure scalar
  // kernels like ddot).
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, CorpusKernelTest,
                         ::testing::Range(0u, static_cast<unsigned>(
                                                  corpus().size())));

TEST(Corpus, SuitesPresent) {
  std::vector<std::string> Suites = suiteNames();
  ASSERT_GE(Suites.size(), 7u);
  EXPECT_EQ(Suites[0], "linpack");
  EXPECT_NE(findKernel("daxpy"), nullptr);
  EXPECT_EQ(findKernel("daxpy")->Suite, "linpack");
  EXPECT_EQ(findKernel("no-such-kernel"), nullptr);
  EXPECT_GE(kernelsInSuite("paper").size(), 8u);
}

//===----------------------------------------------------------------------===//
// Paper-example verdicts
//===----------------------------------------------------------------------===//

TEST(PaperExamples, StrongSIVRecurrence) {
  AnalysisResult R = analyzeKernel("paper_strong_siv");
  ASSERT_EQ(R.Graph.dependences().size(), 1u);
  const Dependence &D = R.Graph.dependences()[0];
  EXPECT_EQ(D.Kind, DependenceKind::Flow);
  EXPECT_EQ(D.Vector.Distances[0], std::optional<int64_t>(1));
}

TEST(PaperExamples, WeakZeroPeelable) {
  AnalysisResult R = analyzeKernel("paper_weak_zero_first");
  // y(i) = y(1): a flow dependence from the write of iteration 1 to
  // the reads of later iterations.
  bool SawCarried = false;
  for (const Dependence &D : R.Graph.dependences())
    SawCarried |= !D.isLoopIndependent();
  EXPECT_TRUE(SawCarried);
}

TEST(PaperExamples, WeakCrossing) {
  AnalysisResult R = analyzeKernel("paper_weak_crossing");
  EXPECT_FALSE(R.Graph.dependences().empty());
  EXPECT_GT(R.Stats.applications(TestKind::WeakCrossingSIV) +
                R.Stats.applications(TestKind::SymbolicSIV),
            0u);
}

TEST(PaperExamples, DeltaDisprovesCoupled) {
  AnalysisResult R = analyzeKernel("paper_delta_coupled");
  // a(i+1, i) vs a(i, i+1): independent (the Delta test's flagship).
  EXPECT_TRUE(R.Graph.dependences().empty());
  EXPECT_EQ(R.Stats.IndependentPairs, 1u);
  EXPECT_GT(R.Stats.applications(TestKind::Delta), 0u);
}

TEST(PaperExamples, DeltaPropagationDistances) {
  AnalysisResult R = analyzeKernel("paper_delta_propagate");
  // a(i+1, i+j) = a(i, i+j): distance vector (1, -1).
  bool Saw = false;
  for (const Dependence &D : R.Graph.dependences()) {
    if (D.Kind != DependenceKind::Flow)
      continue;
    if (D.Vector.Distances[0] == std::optional<int64_t>(1) &&
        D.Vector.Distances[1] == std::optional<int64_t>(-1))
      Saw = true;
  }
  EXPECT_TRUE(Saw) << R.Graph.str();
}

TEST(PaperExamples, SkewedLivermoreDistances) {
  AnalysisResult R = analyzeKernel("paper_skewed_livermore");
  std::set<std::pair<int64_t, int64_t>> Dists;
  for (const Dependence &D : R.Graph.dependences())
    if (D.Vector.Distances[0] && D.Vector.Distances[1])
      Dists.insert({*D.Vector.Distances[0], *D.Vector.Distances[1]});
  EXPECT_TRUE(Dists.count({1, 0}));
  EXPECT_TRUE(Dists.count({0, 1}));
}

TEST(PaperExamples, RDIVTranspose) {
  AnalysisResult R = analyzeKernel("paper_rdiv_transpose");
  // a(i,j) = a(j,i): dependences exist; the i loop must not be
  // reported parallel.
  std::vector<const DoLoop *> Loops = R.Graph.allLoops();
  ASSERT_EQ(Loops.size(), 2u);
  EXPECT_FALSE(R.Graph.isLoopParallel(Loops[0]));
}

TEST(PaperExamples, GCDStride) {
  AnalysisResult R = analyzeKernel("paper_gcd_stride");
  EXPECT_EQ(R.Stats.IndependentPairs, 1u);
  EXPECT_TRUE(R.Graph.dependences().empty());
}

TEST(PaperExamples, SymbolicZIV) {
  AnalysisResult R = analyzeKernel("paper_symbolic_ziv");
  // a(n) vs a(n+1): never equal.
  EXPECT_EQ(R.Stats.IndependentPairs, 1u);
}

TEST(PaperExamples, BdnaInduction) {
  AnalysisResult R = analyzeKernel("bdna_induction");
  // After IV substitution c(2i) is affine; self output/flow deps at
  // even offsets; c(2i) vs c(2i) same: distance 0 only: no carried
  // dependence.
  std::vector<const DoLoop *> Loops = R.Graph.allLoops();
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_TRUE(R.Graph.isLoopParallel(Loops[0])) << R.Graph.str();
}

TEST(PaperExamples, SpiceSparseIsNonlinear) {
  AnalysisResult R = analyzeKernel("spice_sparse");
  EXPECT_GT(R.Stats.NonlinearSubscripts, 0u);
  // Conservative: the loop must not be parallel.
  std::vector<const DoLoop *> Loops = R.Graph.allLoops();
  ASSERT_FALSE(Loops.empty());
  EXPECT_FALSE(R.Graph.isLoopParallel(Loops[0]));
}

//===----------------------------------------------------------------------===//
// Suite reports
//===----------------------------------------------------------------------===//

TEST(SuiteReports, TablesHaveAllSuites) {
  std::vector<SuiteReport> Reports = analyzeCorpusSuites();
  ASSERT_GE(Reports.size(), 6u);
  for (const SuiteReport &R : Reports) {
    EXPECT_GT(R.Kernels, 0u) << R.Suite;
    EXPECT_GT(R.Lines, 0u) << R.Suite;
    EXPECT_GT(R.Loops, 0u) << R.Suite;
  }
  std::string T1 = formatTable1(Reports);
  std::string T2 = formatTable2(Reports);
  std::string T3 = formatTable3(Reports);
  for (const SuiteReport &R : Reports) {
    EXPECT_NE(T1.find(R.Suite), std::string::npos);
    EXPECT_NE(T2.find(R.Suite), std::string::npos);
    EXPECT_NE(T3.find(R.Suite), std::string::npos);
  }
}

TEST(SuiteReports, PracticalBeatsBaselineOnCoupled) {
  // The Table 3b claim: on coupled subscript pairs, the practical
  // suite (Delta) proves at least as many independences as
  // subscript-by-subscript, and strictly more somewhere in the corpus.
  std::vector<SuiteReport> Reports = analyzeCorpusSuites(
      /*IncludePaperSuite=*/true);
  uint64_t Practical = 0, Baseline = 0;
  for (const SuiteReport &R : Reports) {
    EXPECT_GE(R.PairsIndependentPractical, R.PairsIndependentBaseline)
        << R.Suite;
    Practical += R.CoupledIndependentPractical;
    Baseline += R.CoupledIndependentBaseline;
  }
  EXPECT_GE(Practical, Baseline);
  EXPECT_GT(Practical, 0u);
}

TEST(SuiteReports, ZIVAndSIVDominateApplications) {
  // The paper's central empirical claim: most subscripts are simple.
  std::vector<SuiteReport> Reports = analyzeCorpusSuites();
  uint64_t Simple = 0, MIV = 0;
  for (const SuiteReport &R : Reports) {
    Simple += R.Stats.applications(TestKind::ZIV) +
              R.Stats.applications(TestKind::SymbolicZIV) +
              R.Stats.applications(TestKind::StrongSIV) +
              R.Stats.applications(TestKind::WeakZeroSIV) +
              R.Stats.applications(TestKind::WeakCrossingSIV) +
              R.Stats.applications(TestKind::ExactSIV) +
              R.Stats.applications(TestKind::SymbolicSIV);
    MIV += R.Stats.applications(TestKind::GCD) +
           R.Stats.applications(TestKind::Banerjee);
  }
  EXPECT_GT(Simple, MIV);
}
