//===- driver/RunReport.h - Versioned per-run analysis report ---*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One JSON document per tool run that consolidates everything the
/// observability stack knows: the paper-facing TestStats counters, the
/// merged MetricsSnapshot (with p50/p95/p99 latency summaries), the
/// degradation and budget counters, and — when tracing is armed — the
/// span attribution profile (support/Profile.h). The document carries
/// a schema tag ("pdt-report-v1") so downstream tooling (depprof,
/// BENCH_HISTORY.jsonl) can reject files it does not understand.
///
/// The report is a process-wide recorder: tools note their identity,
/// workload parameters, accumulated TestStats, and wall time as they
/// run, then render() assembles the canonical document. PDT_REPORT=
/// out.json arms the recorder from the environment and writes the
/// file at process exit (crash-safe, like PDT_TRACE / PDT_METRICS);
/// depcheck, depfuzz, and every bench_x* also record explicitly.
///
/// Canonical form: fixed member order, entries sorted by key, every
/// TestKind and FailureKind row present even when zero. For a
/// deterministic workload the "stats" section is byte-identical at
/// any thread count; timing-valued members are confined to "meta",
/// "metrics", "profile", and "timing" so report diffs can gate on the
/// deterministic subset (see driver/ReportDiff.h). The "routing"
/// section (batched vs scalar pair routing, core/PairBatch.h) is
/// likewise excluded from gating: it varies with PDT_BATCH and the
/// batching threshold while the verdicts stay identical.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_DRIVER_RUNREPORT_H
#define PDT_DRIVER_RUNREPORT_H

#include "core/TestStats.h"

#include <cstdint>
#include <string>

namespace pdt {

/// Process-wide report recorder. All members are static and
/// thread-safe; typical use is one tool == one report.
class RunReport {
public:
  /// Names the producing tool ("depcheck", "bench_x3", ...). Last
  /// call wins.
  static void noteTool(std::string Tool);

  /// Adds one workload descriptor ("seed" = "0xbadc0ffee", "nests" =
  /// "400", ...). Duplicate keys overwrite; rendered sorted by key.
  static void noteWorkload(std::string Key, std::string Value);
  static void noteWorkload(std::string Key, uint64_t Value);

  /// Folds \p Stats into the report's accumulated TestStats.
  static void noteStats(const TestStats &Stats);

  /// Adds wall time attributed to the measured work (not process
  /// lifetime); rendered as "timing.wall_ns" when nonzero.
  static void noteWallNs(int64_t Ns);

  /// Drops everything recorded so far (tests and benches that emit
  /// several reports from one process).
  static void reset();

  /// Renders the canonical document from the recorded state plus a
  /// live Metrics::snapshot() and, when trace events exist, the span
  /// profile.
  static std::string render();

  /// Writes render() to \p Path; false on I/O failure.
  static bool writeTo(const std::string &Path);

};

} // namespace pdt

#endif // PDT_DRIVER_RUNREPORT_H
