//===- tests/core/PairBatchTest.cpp - Batched fast-path differential ------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched SoA fast path (core/PairBatch.h, core/BatchedSIV.h) must
// be observationally identical to the scalar testers: same dependence
// graph, same TestStats, at every thread count, on every input —
// including subscripts with coefficients and constants at the INT64
// boundary, where the planner must either stay exact or fall back to
// the scalar path (which degrades the same way). The routing trio
// (BatchedZIV / BatchedStrongSIV / ScalarFallback) is the only
// permitted difference and is excluded from TestStats equality.
//
//===----------------------------------------------------------------------===//

#include "core/PairBatch.h"

#include "core/AccessLoweringCache.h"
#include "core/DependenceGraph.h"
#include "driver/Analyzer.h"
#include "driver/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <string>

using namespace pdt;

namespace {

/// Scoped environment variable (mirrors tests/support/EnvTest.cpp).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Old = std::getenv(Name);
    if (Old)
      Saved = Old;
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

struct BuildOut {
  std::string Graph;
  TestStats Stats;
};

BuildOut buildWith(const Program &P, const SymbolRangeMap &Symbols,
                   BatchMode Mode, unsigned Threads) {
  setBatchModeOverride(Mode);
  TestStats S;
  DependenceGraph G = DependenceGraph::build(P, Symbols, &S,
                                             /*IncludeInput=*/false, Threads);
  setBatchModeOverride(std::nullopt);
  return {G.str(), S};
}

AnalysisResult analyzed(const std::string &Source) {
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult R = analyzeSource(Source, "pairbatch-test", Opt);
  EXPECT_TRUE(R.Parsed);
  return R;
}

uint64_t routingTotal(const TestStats &S) {
  return S.BatchedZIV + S.BatchedStrongSIV + S.ScalarFallback;
}

} // namespace

TEST(PairBatch, ModeResolution) {
  setBatchModeOverride(std::nullopt);
  {
    ScopedEnv E("PDT_BATCH", "off");
    EXPECT_EQ(batchMode(), BatchMode::Off);
  }
  {
    ScopedEnv E("PDT_BATCH", "on");
    EXPECT_EQ(batchMode(), BatchMode::On);
  }
  {
    ScopedEnv E("PDT_BATCH", "auto");
    EXPECT_EQ(batchMode(), BatchMode::Auto);
  }
  {
    // Malformed values warn and fall back to the default.
    ScopedEnv E("PDT_BATCH", "sometimes");
    EXPECT_EQ(batchMode(), BatchMode::Auto);
  }
  {
    ScopedEnv E("PDT_BATCH", nullptr);
    EXPECT_EQ(batchMode(), BatchMode::Auto);
  }
  // The programmatic override outranks the environment.
  setBatchModeOverride(BatchMode::On);
  {
    ScopedEnv E("PDT_BATCH", "off");
    EXPECT_EQ(batchMode(), BatchMode::On);
  }
  setBatchModeOverride(std::nullopt);
}

TEST(PairBatch, RoutingCountersReflectRouting) {
  std::mt19937_64 Rng(42);
  AnalysisResult Base =
      analyzed(generateBatchHeavyProgramSource(Rng, /*NumNests=*/24));

  BuildOut Off = buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::Off, 1);
  EXPECT_EQ(routingTotal(Off.Stats), 0u);

  BuildOut On = buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::On, 1);
  EXPECT_GT(On.Stats.BatchedZIV, 0u);
  EXPECT_GT(On.Stats.BatchedStrongSIV, 0u);
  // The workload plants coupled (i+j) subscripts every 11th nest.
  EXPECT_GT(On.Stats.ScalarFallback, 0u);
  // Batched subscripts are a subset of the structural classes.
  EXPECT_LE(On.Stats.BatchedZIV, On.Stats.ZIVSubscripts);
  EXPECT_LE(On.Stats.BatchedStrongSIV, On.Stats.SIVSubscripts);

  // Routing must not leak into results.
  EXPECT_EQ(On.Graph, Off.Graph);
  EXPECT_TRUE(On.Stats == Off.Stats);
}

TEST(PairBatch, DriverPathBatchesUnderUnlimitedBudget) {
  // analyzeSource always carries a ResourceBudget; the default
  // (unlimited) budget must not forfeit batching — only the
  // pair-skipping limits (deadline, pair cap) force scalar order.
  std::mt19937_64 Rng(7);
  std::string Source = generateBatchHeavyProgramSource(Rng, /*NumNests=*/8);

  setBatchModeOverride(BatchMode::On);
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Unlimited = analyzeSource(Source, "pairbatch-budget", Opt);
  Opt.Budget.MaxPairs = 1000000;
  AnalysisResult Capped = analyzeSource(Source, "pairbatch-budget", Opt);
  setBatchModeOverride(std::nullopt);

  ASSERT_TRUE(Unlimited.Parsed);
  EXPECT_GT(routingTotal(Unlimited.Stats), 0u);
  // A pair cap (even one far above the pair count) degrades pairs in
  // scalar enumeration order, so the build must route scalar.
  ASSERT_TRUE(Capped.Parsed);
  EXPECT_EQ(routingTotal(Capped.Stats), 0u);
  EXPECT_EQ(Capped.Graph.str(), Unlimited.Graph.str());
  EXPECT_TRUE(Capped.Stats == Unlimited.Stats);
}

TEST(PairBatch, RoutingCountsMatchThePlanner) {
  // Each pair is routed once: the build's ScalarFallback must be the
  // number of enumerated pairs planBatchedPair rejects, and its batched
  // counters the number of entries it plans, whichever stripes the
  // pairs land in. Inputs: the ablation's batch-heavy program and
  // bench_x3's 64-nest program.
  std::mt19937_64 HeavyRng(0x5EEDBA7C4);
  std::mt19937_64 BigRng(0xBADC0FFEE);
  const std::string Sources[] = {
      generateBatchHeavyProgramSource(HeavyRng, 64),
      generateRandomProgramSource(BigRng, 64, /*MaxDepth=*/3,
                                  /*StmtsPerNest=*/3)};
  for (const std::string &Source : Sources) {
    AnalysisResult Base = analyzed(Source);
    ASSERT_TRUE(Base.Parsed);
    const Program &P = *Base.Prog;

    // The build's enumeration: same-array, write-involving pairs.
    std::vector<ArrayAccess> Accesses = collectAccesses(P);
    std::set<std::string> VaryingScalars = collectVaryingScalars(P);
    AccessLoweringCache Cache(Accesses, Base.ResolvedSymbols,
                              &VaryingScalars);
    PairBatchPlan Plan;
    uint64_t Rejected = 0;
    size_t PairIdx = 0;
    for (unsigned I = 0; I != Accesses.size(); ++I)
      for (unsigned J = I; J != Accesses.size(); ++J) {
        if (Accesses[I].Ref->getArrayName() !=
                Accesses[J].Ref->getArrayName() ||
            (I == J && !Accesses[I].IsWrite) ||
            (!Accesses[I].IsWrite && !Accesses[J].IsWrite))
          continue;
        if (!Cache.planBatchedPair(I, J, PairIdx++, Plan))
          ++Rejected;
      }
    ASSERT_GT(Plan.Pairs.size(), 0u);
    ASSERT_GT(Rejected, 0u);

    for (unsigned Threads : {1u, 4u}) {
      BuildOut On = buildWith(P, Base.ResolvedSymbols, BatchMode::On, Threads);
      EXPECT_EQ(On.Stats.ReferencePairs, PairIdx) << Threads << " thread(s)";
      EXPECT_EQ(On.Stats.ScalarFallback, Rejected) << Threads << " thread(s)";
      EXPECT_EQ(On.Stats.BatchedZIV + On.Stats.BatchedStrongSIV,
                Plan.numEntries())
          << Threads << " thread(s)";
    }
  }
}

TEST(PairBatch, BatchedMatchesScalarAcrossSeedsAndThreads) {
  // The bulk differential: batch-heavy and generic random programs,
  // many seeds, scalar reference at 1 thread vs batched at 1 to 8
  // threads — every stripe count from one up to the worker count, and
  // strides that split buckets unevenly. TotalPairs counts the
  // reference pairs each configuration tested; the suite must exercise
  // >= 100k.
  uint64_t TotalPairs = 0;
  for (uint64_t Seed = 0; Seed != 18; ++Seed) {
    std::mt19937_64 Rng(Seed * 7919 + 1);
    std::string Source =
        Seed % 2 ? generateBatchHeavyProgramSource(Rng, 40)
                 : generateRandomProgramSource(Rng, 40, /*MaxDepth=*/3,
                                               /*StmtsPerNest=*/3);
    AnalysisResult Base = analyzed(Source);
    ASSERT_TRUE(Base.Parsed);

    BuildOut Ref =
        buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::Off, 1);
    TotalPairs += Ref.Stats.ReferencePairs;
    for (unsigned Threads : {1u, 2u, 3u, 4u, 8u}) {
      BuildOut On =
          buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::On, Threads);
      TotalPairs += On.Stats.ReferencePairs;
      EXPECT_EQ(On.Graph, Ref.Graph)
          << "seed " << Seed << " at " << Threads << " thread(s)";
      EXPECT_TRUE(On.Stats == Ref.Stats)
          << "seed " << Seed << " at " << Threads << " thread(s)";
    }
    // Auto mode must agree as well, whichever route it picks.
    BuildOut Auto =
        buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::Auto, 4);
    TotalPairs += Auto.Stats.ReferencePairs;
    EXPECT_EQ(Auto.Graph, Ref.Graph) << "seed " << Seed << " (auto)";
    EXPECT_TRUE(Auto.Stats == Ref.Stats) << "seed " << Seed << " (auto)";
  }
  EXPECT_GE(TotalPairs, 100000u);
}

TEST(PairBatch, Int64BoundaryCoefficientsAgree) {
  // Subscripts at the INT64 boundary: distances that overflow the
  // span comparison, constants whose subtraction overflows inside
  // equation() (the planner must roll back to the scalar path, which
  // degrades identically), and exact divisibility at huge magnitudes.
  const char *Sources[] = {
      // Huge constant offset on a strong-SIV pair: distance far
      // beyond the span, independent either way.
      R"(do i = 1, 100
  a(i + 9223372036854775000) = a(i) + 1
end do
)",
      // Coefficient-2 pair whose distance is 2^61.
      R"(do i = 1, 100
  b(2*i + 4611686018427387904) = b(2*i) + 1
end do
)",
      // Constant subtraction overflows: equation() raises, both
      // routings must degrade the same way.
      R"(do i = 1, 100
  c(3*i - 9223372036854775807) = c(3*i + 2) + 1
end do
)",
      // ZIV at the boundary, including an overflow-on-subtract pair.
      R"(do i = 1, 10
  d(9223372036854775807) = d(-9223372036854775807) + 1
  d(9223372036854775806) = d(9223372036854775806) + 1
end do
)",
      // Divisible at huge magnitude: D = C/4 still exceeds the span.
      R"(do i = 1, 50
  e(4*i) = e(4*i + 9223372036854775804) + 1
end do
)",
      // Non-divisible huge constant: independence by divisibility.
      R"(do i = 1, 50
  f(4*i) = f(4*i + 9223372036854775801) + 1
end do
)",
  };
  for (const char *Source : Sources) {
    AnalysisResult Base = analyzed(Source);
    ASSERT_TRUE(Base.Parsed) << Source;
    BuildOut Ref =
        buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::Off, 1);
    for (unsigned Threads : {1u, 4u}) {
      BuildOut On =
          buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::On, Threads);
      EXPECT_EQ(On.Graph, Ref.Graph) << Source;
      EXPECT_TRUE(On.Stats == Ref.Stats) << Source;
    }
  }
}

TEST(PairBatch, SymbolicBoundsStayExactlyEquivalent) {
  // Symbolic upper bounds make the distance range infinite: batched
  // strong-SIV entries carry the unbounded-span sentinel and must
  // reproduce the scalar tester's Maybe verdicts bit for bit.
  const char *Source = R"(do i = 1, n
  a(i+1) = a(i) + 1
  b(i) = b(i+3) + a(i)
  c(5) = c(9) + b(i)
end do
)";
  AnalysisResult Base = analyzed(Source);
  ASSERT_TRUE(Base.Parsed);
  BuildOut Ref = buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::Off, 1);
  BuildOut On = buildWith(*Base.Prog, Base.ResolvedSymbols, BatchMode::On, 1);
  EXPECT_EQ(On.Graph, Ref.Graph);
  EXPECT_TRUE(On.Stats == Ref.Stats);
  EXPECT_GT(Ref.Stats.ReferencePairs, 0u);
}
