//===- tests/core/GraphDeterminismTest.cpp ------------------------------------===//
//
// The parallel graph builder's determinism contract: building the same
// program with 1 and N workers must produce byte-identical reports
// (edges in the serial pair order), equal statistics, and the same
// per-loop parallelism verdicts. Exercised on workload-generated
// programs large enough that the thread pool actually distributes
// work, on a program with fewer pairs than workers, and on the corpus
// for structural variety.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceGraph.h"

#include "driver/Analyzer.h"
#include "driver/Corpus.h"
#include "driver/WorkloadGenerator.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

using namespace pdt;

namespace {

AnalysisResult analyzeWithThreads(const std::string &Source,
                                  unsigned Threads) {
  AnalyzerOptions Opt;
  Opt.NumThreads = Threads;
  AnalysisResult R = analyzeSource(Source, "determinism", Opt);
  EXPECT_TRUE(R.Parsed);
  return R;
}

/// Nine tested pairs: fewer than the workers of a 16-thread build, so
/// each of its stripes holds at most one pair.
const char *NinePairProgram = "do i = 1, 60\n"
                              "  do j = 1, 60\n"
                              "    a(i+1, j) = a(i, j+1)\n"
                              "    b(i, j) = b(i, j-1) + a(i, j)\n"
                              "    c(2*i) = c(2*i+1)\n"
                              "  end do\n"
                              "end do\n"
                              "do i = 1, 50\n"
                              "  d(i+1, i) = d(i, i+1)\n"
                              "end do\n";

TEST(GraphDeterminismTest, WorkloadGraphsByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> Sources;
  for (uint64_t Seed : {1u, 7u, 42u}) {
    std::mt19937_64 Rng(Seed);
    Sources.push_back(generateRandomProgramSource(Rng, /*NumNests=*/10,
                                                  /*MaxDepth=*/3,
                                                  /*StmtsPerNest=*/3));
  }
  Sources.push_back(NinePairProgram);
  EXPECT_EQ(analyzeWithThreads(NinePairProgram, 1).Stats.ReferencePairs, 9u);

  for (size_t Input = 0; Input != Sources.size(); ++Input) {
    const std::string &Source = Sources[Input];
    AnalysisResult Serial = analyzeWithThreads(Source, 1);
    ASSERT_FALSE(Serial.Graph.dependences().empty());
    std::string SerialReport = Serial.Graph.str();

    for (unsigned Threads : {2u, 3u, 8u, 16u}) {
      AnalysisResult Parallel = analyzeWithThreads(Source, Threads);
      EXPECT_EQ(Parallel.Graph.str(), SerialReport)
          << "input " << Input << ", " << Threads << " threads";
      EXPECT_EQ(Parallel.Stats, Serial.Stats);
      EXPECT_EQ(Parallel.Graph.dependences().size(),
                Serial.Graph.dependences().size());
    }
  }
}

TEST(GraphDeterminismTest, CorpusGraphsByteIdenticalAcrossThreadCounts) {
  for (const CorpusKernel &K : corpus()) {
    AnalyzerOptions Serial;
    Serial.NumThreads = 1;
    AnalysisResult R1 = analyzeSource(K.Source, K.Name, Serial);
    ASSERT_TRUE(R1.Parsed) << K.Name;

    AnalyzerOptions Par;
    Par.NumThreads = 4;
    AnalysisResult R4 = analyzeSource(K.Source, K.Name, Par);
    EXPECT_EQ(R4.Graph.str(), R1.Graph.str()) << K.Name;
  }
}

TEST(GraphDeterminismTest, ParallelismVerdictsMatchSerialAndEdgeScan) {
  std::mt19937_64 Rng(123);
  std::string Source = generateRandomProgramSource(Rng, 8, 3, 2);
  AnalysisResult Serial = analyzeWithThreads(Source, 1);
  AnalysisResult Parallel = analyzeWithThreads(Source, 4);

  std::vector<const DoLoop *> Loops = Serial.Graph.allLoops();
  ASSERT_FALSE(Loops.empty());
  // Serial.Graph and Parallel.Graph hold different Program copies, so
  // compare verdicts positionally (allLoops is deterministic preorder).
  std::vector<const DoLoop *> ParLoops = Parallel.Graph.allLoops();
  ASSERT_EQ(Loops.size(), ParLoops.size());
  for (unsigned I = 0; I != Loops.size(); ++I) {
    // The carrier index must agree with a full edge rescan.
    unsigned Scanned = 0;
    for (const Dependence &D : Serial.Graph.dependences())
      Scanned += D.Carrier == Loops[I];
    EXPECT_EQ(Serial.Graph.carriedEdgeCount(Loops[I]), Scanned);
    EXPECT_EQ(Serial.Graph.isLoopParallel(Loops[I]), Scanned == 0);
    EXPECT_EQ(Parallel.Graph.isLoopParallel(ParLoops[I]),
              Serial.Graph.isLoopParallel(Loops[I]));
  }
}

TEST(GraphDeterminismTest, ThreadPoolCoversEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 5u}) {
    ThreadPool Pool(Threads);
    EXPECT_EQ(Pool.numWorkers(), Threads);
    constexpr size_t N = 10000;
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.parallelFor(N, [&](size_t I, unsigned Worker) {
      ASSERT_LT(Worker, Threads);
      ++Hits[I];
    });
    size_t Total = 0;
    for (const auto &H : Hits) {
      EXPECT_EQ(H.load(), 1u);
      Total += H.load();
    }
    EXPECT_EQ(Total, N);
    // Reusable: a second loop on the same pool works too.
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(100, [&](size_t I, unsigned) { Sum += I; });
    EXPECT_EQ(Sum.load(), 4950u);
  }
}

TEST(GraphDeterminismTest, ThreadPoolHandlesEmptyAndTinyLoops) {
  ThreadPool Pool(4);
  Pool.parallelFor(0, [&](size_t, unsigned) { FAIL(); });
  std::atomic<unsigned> Count{0};
  Pool.parallelFor(1, [&](size_t, unsigned) { ++Count; });
  Pool.parallelFor(3, [&](size_t, unsigned) { ++Count; });
  EXPECT_EQ(Count.load(), 4u);
}

} // namespace
