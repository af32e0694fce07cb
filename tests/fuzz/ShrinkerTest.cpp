//===- tests/fuzz/ShrinkerTest.cpp ----------------------------------------===//
//
// The delta-debugging reducer's contract: every reduction candidate is
// a complete well-formed kernel, a shrunk kernel still satisfies the
// caller's predicate, and when the shrink reports Minimal no single
// further reduction reproduces (local minimality). Exercised both on a
// pure structural predicate and on the real differential predicate
// chasing a deliberately planted bug.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "fuzz/Differential.h"
#include "fuzz/KernelGen.h"

#include <gtest/gtest.h>

using namespace pdt;

namespace {

/// Structural invariants every kernel the predicate may see must hold.
void expectWellFormed(const FuzzKernel &K) {
  ASSERT_FALSE(K.Loops.empty());
  ASSERT_FALSE(K.Stmts.empty());
  unsigned Rank = K.rank();
  ASSERT_GE(Rank, 1u);
  std::map<std::string, int64_t> Used;
  for (const FuzzLoop &L : K.Loops)
    if (!L.UpperSymbol.empty()) {
      auto It = K.SymbolValues.find(L.UpperSymbol);
      ASSERT_NE(It, K.SymbolValues.end());
      Used.insert(*It);
    }
  for (const FuzzStmt &S : K.Stmts) {
    EXPECT_EQ(S.Write.size(), Rank);
    EXPECT_EQ(S.Read.size(), Rank);
    for (const std::vector<LinearExpr> *Side : {&S.Write, &S.Read})
      for (const LinearExpr &E : *Side)
        for (const auto &[Name, Coeff] : E.symbolTerms()) {
          (void)Coeff;
          auto It = K.SymbolValues.find(std::string(Name));
          ASSERT_NE(It, K.SymbolValues.end());
          Used.insert(*It);
        }
  }
  // The symbol table holds exactly the mentioned symbols (pruned).
  EXPECT_EQ(K.SymbolValues, Used);
}

/// The differential predicate the campaign driver shrinks with: the
/// kernel still exhibits a soundness violation under the planted bug.
/// Interpreter coverage is off to keep each evaluation cheap.
bool reproducesPlantedBug(const FuzzKernel &K) {
  FuzzCheckConfig Check;
  Check.DeliberateBug = FuzzCheckConfig::Bug::ForceIndependent;
  Check.RunInterpreterCheck = false;
  FuzzKernelVerdict V = checkFuzzKernel(K, Check);
  for (const FuzzDiscrepancy &D : V.Discrepancies)
    if (D.Kind == FuzzDiscrepancyKind::SoundnessViolation)
      return true;
  return false;
}

/// The first campaign kernel the planted bug convicts.
FuzzKernel firstConvictedKernel() {
  for (uint64_t Index = 0; Index != 200; ++Index) {
    FuzzKernel K = generateFuzzKernel(7, Index);
    if (reproducesPlantedBug(K))
      return K;
  }
  ADD_FAILURE() << "no kernel in 200 reproduces the planted bug";
  return generateFuzzKernel(7, 0);
}

TEST(ShrinkerTest, ReductionCandidatesAreWellFormedAndDistinct) {
  for (uint64_t Index : {1u, 5u, 6u, 7u, 8u, 9u, 123u}) {
    FuzzKernel K = generateFuzzKernel(5, Index);
    for (const FuzzKernel &C : fuzzReductionCandidates(K)) {
      expectWellFormed(C);
      EXPECT_FALSE(C == K) << "index " << Index;
    }
  }
}

TEST(ShrinkerTest, AlwaysTruePredicateReachesTheStructuralFloor) {
  // With a predicate that accepts everything, the shrink must walk all
  // the way down to a kernel with no reductions left at all.
  FuzzKernel K = generateFuzzKernel(5, 6); // Coupled-MIV: largest shape.
  FuzzShrinkResult R =
      shrinkFuzzKernel(K, [](const FuzzKernel &) { return true; });
  EXPECT_TRUE(R.Minimal);
  EXPECT_GT(R.Reductions, 0u);
  EXPECT_EQ(R.Kernel.Loops.size(), 1u);
  EXPECT_EQ(R.Kernel.Stmts.size(), 1u);
  EXPECT_EQ(R.Kernel.rank(), 1u);
  EXPECT_TRUE(R.Kernel.SymbolValues.empty());
  EXPECT_TRUE(fuzzReductionCandidates(R.Kernel).empty());
}

TEST(ShrinkerTest, NonReproducingKernelIsReturnedUnshrunk) {
  FuzzKernel K = generateFuzzKernel(5, 3);
  FuzzShrinkResult R =
      shrinkFuzzKernel(K, [](const FuzzKernel &) { return false; });
  EXPECT_EQ(R.Kernel, K);
  EXPECT_EQ(R.Reductions, 0u);
  EXPECT_FALSE(R.Minimal);
}

TEST(ShrinkerTest, MaxStepsBoundsPredicateEvaluations) {
  FuzzKernel K = generateFuzzKernel(5, 6);
  unsigned Calls = 0;
  FuzzShrinkResult R = shrinkFuzzKernel(
      K,
      [&Calls](const FuzzKernel &) {
        ++Calls;
        return true;
      },
      /*MaxSteps=*/3);
  EXPECT_LE(R.StepsTried, 3u);
  EXPECT_LE(Calls, 3u);
  EXPECT_FALSE(R.Minimal); // Budget expired before the floor.
}

TEST(ShrinkerTest, ShrunkBugReproducesAndIsLocallyMinimal) {
  FuzzKernel K = firstConvictedKernel();
  FuzzShrinkResult R = shrinkFuzzKernel(K, reproducesPlantedBug);

  // The shrunk kernel still convicts the planted bug...
  EXPECT_TRUE(reproducesPlantedBug(R.Kernel));
  EXPECT_LE(R.Kernel.Stmts.size(), K.Stmts.size());
  expectWellFormed(R.Kernel);

  // ...and no single further reduction does: local minimality.
  ASSERT_TRUE(R.Minimal);
  for (const FuzzKernel &C : fuzzReductionCandidates(R.Kernel))
    EXPECT_FALSE(reproducesPlantedBug(C));
}

} // namespace
