//===- tests/core/AllocationGuardTest.cpp ---------------------------------===//
//
// Counts heap allocations (calls of the global operator new) across one
// serial DependenceGraph::build of bench_x3's 64-nest program. The
// count is a property of the code, not of the machine: it repeats
// exactly from run to run, so it guards the allocation-free pair path
// without timing noise. A separate binary because it replaces the
// global operator new.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceGraph.h"
#include "core/PairBatch.h"
#include "driver/Analyzer.h"
#include "driver/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace pdt;

namespace {

/// Allocations made by one serial build of \p Prog.
uint64_t countBuild(const Program &Prog, const SymbolRangeMap &Symbols) {
  TestStats Stats;
  Allocations.store(0);
  Counting.store(true);
  {
    DependenceGraph G = DependenceGraph::build(Prog, Symbols, &Stats,
                                               /*IncludeInput=*/false,
                                               /*NumThreads=*/1);
    Counting.store(false);
    EXPECT_EQ(G.dependences().size(), 6887u);
  }
  return Allocations.load();
}

} // namespace

TEST(AllocationGuard, SerialBigProgramBuild) {
  // bench_x3's workload, built as bench_x3 builds it.
  std::mt19937_64 Rng(0xBADC0FFEE);
  std::string Source = generateRandomProgramSource(Rng, 64, /*MaxDepth=*/3,
                                                   /*StmtsPerNest=*/3);
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x3-workload", Opt);
  ASSERT_TRUE(Base.Parsed);
  SymbolRangeMap Symbols;
  Symbols.try_emplace("n", Interval(1, std::nullopt));
  setBatchModeOverride(BatchMode::Auto);

  // The first build pays one-time lazy initialisation; the guarded
  // count is a warm build's, and it repeats exactly.
  countBuild(*Base.Prog, Symbols);
  uint64_t First = countBuild(*Base.Prog, Symbols);
  uint64_t Second = countBuild(*Base.Prog, Symbols);
  setBatchModeOverride(std::nullopt);
  EXPECT_EQ(First, Second) << "allocation count is not deterministic";

  // With the string-keyed affine core (two std::map per LinearExpr, a
  // copied SymbolRangeMap per pair context, str()-built memo keys) this
  // build made 192,785 allocations; the flat core makes 31,708. The
  // bound allows 10% above that count.
  const uint64_t Measured = 31708;
  EXPECT_LE(First, Measured + Measured / 10)
      << "serial build allocations: " << First;
}
