//===- core/PairBatch.cpp - Batched SoA pair-testing plan -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PairBatch.h"

#include "core/AccessLoweringCache.h"
#include "core/Subscript.h"
#include "support/Env.h"
#include "support/Failure.h"

#include <climits>

using namespace pdt;

namespace {

std::optional<BatchMode> &overrideSlot() {
  thread_local std::optional<BatchMode> Slot;
  return Slot;
}

} // namespace

BatchMode pdt::batchMode() {
  if (const std::optional<BatchMode> &Override = overrideSlot())
    return *Override;
  if (std::optional<std::string> Value =
          envChoice("PDT_BATCH", {"on", "off", "auto"})) {
    if (*Value == "on")
      return BatchMode::On;
    if (*Value == "off")
      return BatchMode::Off;
  }
  return BatchMode::Auto;
}

void pdt::setBatchModeOverride(std::optional<BatchMode> Mode) {
  overrideSlot() = Mode;
}

bool pdt::batchingCompiledIn() { return true; }

bool AccessLoweringCache::planBatchedPair(unsigned I, unsigned J,
                                          size_t PairIdx,
                                          PairBatchPlan &Plan) const {
  return planLoweredPair(I, J, PairIdx, lowerScratch(I, J), Plan);
}

bool AccessLoweringCache::planLoweredPair(unsigned I, unsigned J,
                                          size_t PairIdx,
                                          const LoweredPair &Pair,
                                          PairBatchPlan &Plan) const {
  // A lowering that raised (coefficient overflow while retagging),
  // mismatched dimensionality and nonlinear dimensions take the scalar
  // path, which handles each conservatively.
  if (Pair.Failure || Pair.DimMismatch || Pair.HasNonlinear)
    return false;

  size_t EntriesMark = Plan.Coeff.size();
  auto Rollback = [&] {
    Plan.Coeff.resize(EntriesMark);
    Plan.Const.resize(EntriesMark);
    Plan.Span.resize(EntriesMark);
    Plan.Level.resize(EntriesMark);
    Plan.IsSIV.resize(EntriesMark);
    Plan.ExactEntry.resize(EntriesMark);
    return false;
  };

  // Equation building can raise AnalysisError (coefficient overflow
  // while differencing); the scalar path degrades such pairs, so they
  // must not be batched.
  try {
    const LoopNestContext &Ctx = *Pair.Ctx;
    unsigned Depth = Ctx.depth();
    // The coupled-level bitmask below holds 64 levels; deeper nests
    // are fantasy input, handled scalar.
    if (Depth > 64)
      return false;
    // A provably-empty nest short-circuits to EmptyNest independence
    // before any per-subscript test fires; only the scalar path
    // replays that exactly.
    for (const LoopBounds &L : Ctx.loops())
      if (Ctx.indexRange(L.Index).isEmpty())
        return false;

    uint64_t UsedLevels = 0;
    for (const SubscriptPair &S : Pair.Subscripts) {
      LinearExpr Eq = S.equation();
      // Symbolic additive parts route to the SymbolicZIV/SymbolicSIV
      // range machinery; C == INT64_MIN risks UB in the kernel's
      // division and negation (the scalar test raises Overflow or
      // handles it with explicit care).
      if (!Eq.symbolTerms().empty())
        return Rollback();
      int64_t C = Eq.getConstant();
      if (C == INT64_MIN)
        return Rollback();

      LinearExpr::TermRange IndexTerms = Eq.indexTerms();
      if (IndexTerms.empty()) {
        // ZIV: independent iff C != 0, encoded for the shared kernel
        // as {a=1, Span=0}: C % 1 == 0 always, |C/1| > 0 iff C != 0.
        Plan.Coeff.push_back(1);
        Plan.Const.push_back(C);
        Plan.Span.push_back(0);
        Plan.Level.push_back(0);
        Plan.IsSIV.push_back(0);
        Plan.ExactEntry.push_back(1);
        continue;
      }
      if (IndexTerms.size() != 2)
        return Rollback(); // Weak-zero SIV (1 term) or MIV.
      const auto [VarA, CoeffA] = IndexTerms[0];
      const auto [VarB, CoeffB] = IndexTerms[1];
      // Strong SIV is <a*i + c1, a*i' + c2>: the equation must pair an
      // untagged index with its own sink-tagged twin ("i" sorts before
      // "i'", so VarA is the untagged one), with exactly opposite
      // coefficients. -CoeffB at INT64_MIN would overflow; the scalar
      // dispatcher raises Overflow for it.
      if (isSinkName(VarA) || !isSinkName(VarB) || baseName(VarB) != VarA)
        return Rollback(); // RDIV or a mixed shape.
      if (CoeffB == INT64_MIN || CoeffA != -CoeffB)
        return Rollback(); // Weak/general SIV, or overflow risk.
      std::optional<unsigned> Level = Ctx.levelOf(VarA);
      if (!Level)
        return Rollback();
      // Two dimensions constraining the same index form a coupled
      // group, which the Delta test owns.
      if (UsedLevels & (uint64_t(1) << *Level))
        return Rollback();
      UsedLevels |= uint64_t(1) << *Level;

      Interval DistRange = Ctx.distanceRange(VarA);
      if (DistRange.isEmpty())
        return Rollback(); // Unreachable given the nest check; scalar.
      Plan.Coeff.push_back(CoeffA);
      Plan.Const.push_back(C);
      Plan.Span.push_back(DistRange.upper() ? *DistRange.upper()
                                            : INT64_MAX);
      Plan.Level.push_back(*Level);
      Plan.IsSIV.push_back(1);
      Plan.ExactEntry.push_back(DistRange.isFinite() ? 1 : 0);
    }

    Plan.Pairs.push_back({PairIdx, I, J,
                          static_cast<uint32_t>(EntriesMark),
                          static_cast<uint32_t>(Plan.Coeff.size() -
                                                EntriesMark),
                          Depth});
    return true;
  } catch (const AnalysisError &) {
    return Rollback();
  }
}
