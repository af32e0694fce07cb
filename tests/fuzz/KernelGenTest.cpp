//===- tests/fuzz/KernelGenTest.cpp ---------------------------------------===//
//
// The generator's determinism contract: the kernel stream is a pure
// function of (Seed, Index, config), so generating the same campaign
// at 1, 4, and 8 threads yields byte-identical source streams and any
// kernel regenerates in isolation from its coordinates. Plus stratum
// round-robin coverage, structural well-formedness of the population,
// and the repro-format round trip.
//
//===----------------------------------------------------------------------===//

#include "fuzz/KernelGen.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <set>

using namespace pdt;

namespace {

/// Renders kernels [0, Count) of campaign \p Seed on \p Threads
/// workers. Generation is a pure function of the coordinates, so the
/// result must not depend on the schedule.
std::vector<std::string> generateStream(uint64_t Seed, uint64_t Count,
                                        unsigned Threads) {
  std::vector<std::string> Sources(Count);
  ThreadPool Pool(Threads);
  Pool.parallelFor(Count, [&](size_t I, unsigned) {
    Sources[I] = fuzzKernelToSource(generateFuzzKernel(Seed, I));
  });
  return Sources;
}

TEST(KernelGenTest, StreamByteIdenticalAcrossThreadCounts) {
  constexpr uint64_t Count = 400;
  for (uint64_t Seed : {1u, 42u}) {
    std::vector<std::string> Serial = generateStream(Seed, Count, 1);
    for (unsigned Threads : {4u, 8u})
      EXPECT_EQ(generateStream(Seed, Count, Threads), Serial)
          << "seed " << Seed << ", " << Threads << " threads";
  }
}

TEST(KernelGenTest, KernelRegeneratesFromItsCoordinates) {
  for (uint64_t Index : {0u, 7u, 123u, 9999u}) {
    FuzzKernel K = generateFuzzKernel(3, Index);
    EXPECT_EQ(K.Seed, 3u);
    EXPECT_EQ(K.Index, Index);
    EXPECT_EQ(generateFuzzKernel(K.Seed, K.Index), K);
  }
}

TEST(KernelGenTest, StrataRoundRobinAndNamesRoundTrip) {
  for (uint64_t Index = 0; Index != 40; ++Index)
    EXPECT_EQ(generateFuzzKernel(1, Index).Stratum,
              static_cast<FuzzStratum>(Index % NumFuzzStrata));
  for (unsigned S = 0; S != NumFuzzStrata; ++S) {
    FuzzStratum Stratum = static_cast<FuzzStratum>(S);
    std::optional<FuzzStratum> Parsed =
        fuzzStratumFromName(fuzzStratumName(Stratum));
    ASSERT_TRUE(Parsed.has_value()) << fuzzStratumName(Stratum);
    EXPECT_EQ(*Parsed, Stratum);
  }
  EXPECT_FALSE(fuzzStratumFromName("not-a-stratum").has_value());
}

TEST(KernelGenTest, PerKernelSeedHashSeparatesNeighbors) {
  std::set<uint64_t> Seen;
  for (uint64_t Seed : {1u, 2u})
    for (uint64_t Index = 0; Index != 64; ++Index)
      Seen.insert(fuzzKernelSeed(Seed, Index));
  // Neighboring coordinates must not collide (splitmix64 mixes both).
  EXPECT_EQ(Seen.size(), 128u);
}

TEST(KernelGenTest, GeneratedKernelsAreWellFormed) {
  for (uint64_t Index = 0; Index != 300; ++Index) {
    FuzzKernel K = generateFuzzKernel(11, Index);
    ASSERT_FALSE(K.Loops.empty()) << Index;
    ASSERT_FALSE(K.Stmts.empty()) << Index;
    unsigned Rank = K.rank();
    ASSERT_GE(Rank, 1u) << Index;
    for (const FuzzStmt &S : K.Stmts) {
      EXPECT_EQ(S.Write.size(), Rank) << Index;
      EXPECT_EQ(S.Read.size(), Rank) << Index;
    }
    // Every symbol the structure mentions has a sampled value >= 1, so
    // the standard [1, inf) symbol-range assumption holds.
    for (const FuzzLoop &L : K.Loops)
      if (!L.UpperSymbol.empty()) {
        auto It = K.SymbolValues.find(L.UpperSymbol);
        ASSERT_NE(It, K.SymbolValues.end()) << Index;
        EXPECT_EQ(It->second, L.Upper) << Index;
      }
    for (const auto &[Name, Value] : K.SymbolValues) {
      (void)Name;
      EXPECT_GE(Value, 1) << Index;
    }
    for (const FuzzStmt &S : K.Stmts)
      for (const std::vector<LinearExpr> *Side : {&S.Write, &S.Read})
        for (const LinearExpr &E : *Side)
          for (const auto &[Name, Coeff] : E.symbolTerms()) {
            (void)Coeff;
            EXPECT_TRUE(K.SymbolValues.count(std::string(Name))) << Index;
          }
  }
}

TEST(KernelGenTest, SourceRoundTripsThroughTheParser) {
  for (uint64_t Index = 0; Index != 300; ++Index) {
    FuzzKernel K = generateFuzzKernel(1, Index);
    std::optional<FuzzKernel> Back = parseFuzzKernelSource(fuzzKernelToSource(K));
    ASSERT_TRUE(Back.has_value()) << "index " << Index;
    EXPECT_EQ(*Back, K) << "index " << Index;
  }
}

TEST(KernelGenTest, ConfigShapesThePopulation) {
  FuzzGenConfig Tight;
  Tight.MaxDepth = 1;
  Tight.MaxDims = 1;
  Tight.MaxStmts = 1;
  for (uint64_t Index = 0; Index != 50; ++Index) {
    FuzzKernel K = generateFuzzKernel(1, Index, Tight);
    // RDIV needs two loops and coupled MIV two loops and two dims; the
    // generator widens the config floor for exactly those strata.
    bool TwoLoops = K.Stratum == FuzzStratum::RDIV ||
                    K.Stratum == FuzzStratum::CoupledMIV;
    EXPECT_EQ(K.Loops.size(), TwoLoops ? 2u : 1u) << Index;
    EXPECT_EQ(K.rank(), K.Stratum == FuzzStratum::CoupledMIV ? 2u : 1u)
        << Index;
    EXPECT_EQ(K.Stmts.size(), 1u) << Index;
  }
}

} // namespace
