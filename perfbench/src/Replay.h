//===- perfbench/src/Replay.h - Serial replay of a graph build --*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits DependenceGraph::build into core's sub-layers by replaying one
/// serial build through core's public calls (collectAccesses,
/// AccessLoweringCache, planBatchedPair, decidePairBatch,
/// materializeBatchedPair, testPair, orientVectors) with a span around
/// each. The replay must reproduce the real build's TestStats and edge
/// count exactly; a replay that drifts from the build it claims to split
/// is reported as a failure, not as numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Common.h"

#include <array>

namespace perfbench {

struct ReplayResult {
  pdt::TestStats Stats;
  uint64_t Accesses = 0;
  uint64_t Pairs = 0;
  uint64_t Edges = 0;
  /// planBatchedPair calls and the pairs it accepted.
  uint64_t BatchAttempts = 0;
  uint64_t BatchAccepted = 0;
  /// Scalar-tested pairs by their hardest subscript class: ZIV, SIV, MIV,
  /// coupled (Delta).
  std::array<uint64_t, 4> BinPairs{};
};

/// Replays the build of \p R (its analysed program under its resolved
/// symbols) into \p T. \p Options are the options \p R was analysed
/// under; they decide batching exactly as the build does.
ReplayResult replayBuild(const pdt::AnalysisResult &R,
                         const pdt::AnalyzerOptions &Options, Tracer &T);

/// True when \p Replay reproduces \p Build: equal analysis counters,
/// equal routing counters, equal edge count.
bool replayMatches(const ReplayResult &Replay,
                   const pdt::AnalysisResult &Build);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
