//===- core/PairBatch.h - Batched SoA pair-testing plan ---------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched fast path for the tests that decide the overwhelming
/// majority of subscript pairs (paper Tables 1-3): ZIV and strong SIV
/// with pure-constant additive parts. After lowering, the planner
/// classifies each pair's subscripts; pairs whose every dimension is a
/// constant-difference ZIV or a separable strong SIV are packed into
/// one structure-of-arrays buffer (coefficient, constant difference,
/// distance-range span as contiguous int64_t arrays) and decided
/// thousands at a time by a tight branch-free kernel (BatchedSIV.h).
/// Everything else — symbolic terms, weak/general SIV, MIV, coupled
/// groups, overflow-risk coefficients, mismatched dimensionality —
/// falls back to the scalar testZIV/testSIV path, so the batched and
/// scalar verdicts are bit-identical by construction (the differential
/// suite and the fuzzer cross-check this).
///
/// Batching is controlled by PDT_BATCH (on/off/auto, default auto) and
/// a thread-local programmatic override for tests and the fuzzer's
/// cross-check.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_PAIRBATCH_H
#define PDT_CORE_PAIRBATCH_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pdt {

/// How the graph builder routes eligible pairs.
enum class BatchMode {
  Auto, ///< Batch when the pair population is large enough to pay off.
  On,   ///< Batch every eligible pair (tests force coverage this way).
  Off,  ///< Scalar path only.
};

/// The effective mode: the thread-local override when set, else the
/// PDT_BATCH environment variable (on/off/auto, hardened parsing),
/// else Auto. Read once per graph build.
BatchMode batchMode();

/// Sets (or clears, with nullopt) the calling thread's mode override.
/// Thread-local so fuzz campaigns can cross-check batched-vs-scalar on
/// worker threads without racing each other.
void setBatchModeOverride(std::optional<BatchMode> Mode);

/// Always true: the fast path is in every build. Kept only because the
/// benchmark's core replay (perfbench/src/Replay.cpp) calls it.
bool batchingCompiledIn();

/// The structure-of-arrays batch for one decide pass. Entries are
/// subscript dimensions; a pair owns the contiguous run
/// [PairRecord::First, First + Count). A ZIV dimension with constant
/// difference C is encoded as the degenerate strong-SIV entry
/// {Coeff=1, Const=C, Span=0}: the shared kernel then yields
/// independent iff C != 0, exactly the scalar ZIV verdict.
struct PairBatchPlan {
  // Inputs, packed by the planner.
  std::vector<int64_t> Coeff; ///< Strong-SIV coefficient a (never 0).
  std::vector<int64_t> Const; ///< Constant difference C (never INT64_MIN).
  /// Upper bound of the iteration-distance range [0, U-L]; INT64_MAX
  /// when the range is unbounded above (the bounds check then never
  /// rejects, matching the scalar test).
  std::vector<int64_t> Span;
  std::vector<uint32_t> Level;     ///< Loop level of the SIV index.
  std::vector<uint8_t> IsSIV;      ///< 1 = strong SIV, 0 = ZIV.
  std::vector<uint8_t> ExactEntry; ///< Distance range is finite.

  // Outputs, filled by decidePairBatch.
  std::vector<uint8_t> Indep; ///< Entry proves independence.
  std::vector<int64_t> Dist;  ///< Dependence distance C / a.

  /// One planned pair: its slot in the builder's per-pair result array
  /// and its entry run.
  struct PairRecord {
    size_t PairIdx;
    unsigned I, J;
    uint32_t First;
    uint32_t Count;
    uint32_t Depth; ///< Common-nest depth, for the dependence vector.
  };
  std::vector<PairRecord> Pairs;

  size_t numEntries() const { return Coeff.size(); }
};

} // namespace pdt

#endif // PDT_CORE_PAIRBATCH_H
