//===- support/Metrics.h - Per-thread-sharded metrics registry --*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed registry of counters, gauges, and histograms for the
/// analysis pipeline: cache hits and misses, pairs tested, per-test
/// latency, thread-pool chunk/steal counts and queue depth, budget
/// consumption, and degraded verdicts by failure kind. Each thread
/// writes its own shard (plain relaxed stores, single writer), the
/// MetricCells of its ThreadTelemetry state (support/Telemetry.h), and
/// shards are merged into a MetricsSnapshot at report time. An exited
/// thread's shard passes, counts intact, to the next thread that asks,
/// so the shards follow the peak number of live threads. Every
/// merge operation is associative and commutative (sums for counters
/// and histogram cells, max for gauges), so the merged snapshot is
/// independent of shard order and worker scheduling.
///
/// The registry is enumerated, not string-keyed: recording is an array
/// index away, names exist only at report time. JSON is dumped via
/// Metrics::writeTo (programmatic) or PDT_METRICS=out.json (at process
/// exit), alongside the paper-facing TestStats counters.
///
/// Overhead policy matches support/Trace.h: disabled, one relaxed
/// load and a predicted branch; enabled, one or two relaxed stores
/// into the thread shard.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_METRICS_H
#define PDT_SUPPORT_METRICS_H

#include "support/Trace.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace pdt {

/// Monotonic counters.
enum class Metric : unsigned {
  GraphBuilds,         ///< DependenceGraph::build invocations.
  GraphBuildNs,        ///< Total wall time inside build().
  PairsEnumerated,     ///< Pairs produced by the bucketed enumeration.
  PairsTested,         ///< Pairs that ran the tester.
  PairsIndependent,    ///< Pairs proven independent.
  PairsDegraded,       ///< Pairs collapsed to the conservative edge.
  EdgesEmitted,        ///< Directed dependence edges emitted.
  AccessesLowered,     ///< Accesses lowered by the cache constructor.
  MemoHits,            ///< testDependence memo hits.
  MemoMisses,          ///< testDependence memo misses.
  PoolParallelFors,    ///< parallelFor invocations.
  PoolChunksRun,       ///< Chunks executed by all workers.
  PoolSteals,          ///< Chunks stolen from a sibling's deque.
  BudgetPairSkips,     ///< Pairs skipped by the MaxPairs budget.
  BudgetDeadlineSkips, ///< Pairs skipped by an expired deadline.
  FMBudgetHits,        ///< Fourier-Motzkin eliminations that gave up.
  DegradedOverflow,    ///< Degraded verdicts by failure kind...
  DegradedBudget,
  DegradedSymbolic,
  DegradedInternal,
  DegradedMalformed,
  FuzzKernels,         ///< Kernels checked by the differential fuzzer.
  FuzzPairsChecked,    ///< Access pairs cross-checked by the fuzzer.
  FuzzDiscrepancies,   ///< Soundness-class discrepancies found.
  FuzzExactnessLosses, ///< Conservative (inexact, not unsound) edges seen.
  FuzzShrinkSteps,     ///< Candidate reductions evaluated while shrinking.
  StoreHits,           ///< Persistent-store lookups served from disk.
  StoreMisses,         ///< Persistent-store lookups that computed fresh.
  StoreInserts,        ///< Results persisted into the store.
  StoreRecordsLoaded,  ///< Valid records replayed when opening the store.
  StoreCorruptRecords, ///< Checksum/parse-invalid records rejected.
  StoreTornTails,      ///< Truncated segment tails recovered on open.
  StoreStaleSegments,  ///< Segments invalidated by generation skew.
  StoreQuarantined,    ///< Damaged/stale segment files set aside.
  StoreRebuilds,       ///< Segments rebuilt from their valid records.
  StoreWriteFailures,  ///< Store writes that failed (store went broken).
  TraceSpanDrops,      ///< Spans dropped by the per-thread trace cap.
  FlightDumps,         ///< Flight-recorder dumps written (incl. postmortem).
  WatchdogStalls,      ///< Watchdog stall verdicts fired.
  EventsEmitted,       ///< Journal events written (all severities).
  EventsSuppressed,    ///< Journal events dropped by the rate limiter.
  SamplerSamples,      ///< Time-series samples taken.
  ServeConnections,    ///< Connections admitted by depserved.
  ServeRejected,       ///< Connections refused with 429 (saturation).
  ServeRequests,       ///< HTTP requests answered (any status).
  ServeClientErrors,   ///< 4xx responses (incl. malformed HTTP).
  ServeServerErrors,   ///< 5xx responses.
  ServeAnalyses,       ///< Kernels analyzed to completion while serving.
};
constexpr unsigned NumMetrics = 48;

/// Gauges, merged by maximum.
enum class Gauge : unsigned {
  PoolWorkers,       ///< Largest worker count observed.
  PoolQueueDepth,    ///< Deepest chunk deque observed on any worker.
};
constexpr unsigned NumGauges = 2;

/// Latency histograms (nanoseconds, power-of-two buckets).
enum class Histo : unsigned {
  PairTestNs,    ///< One access pair through the tester.
  DeltaNs,       ///< One Delta-test run on a coupled group.
  FMNs,          ///< One Fourier-Motzkin feasibility decision.
  FuzzKernelNs,  ///< One generated kernel through all fuzz deciders.
  ServeRequestNs, ///< One HTTP request through route + respond.
};
constexpr unsigned NumHistos = 5;
constexpr unsigned HistoBuckets = 32;

/// Report-time name ("graph.pairs.tested", "pool.steals", ...).
const char *metricName(Metric M);
const char *gaugeName(Gauge G);
const char *histoName(Histo H);

/// One merged (or per-thread) view of every metric. Merging is a plain
/// field-wise sum (max for gauges): associative, commutative, and
/// independent of shard enumeration order.
struct MetricsSnapshot {
  struct Histogram {
    uint64_t Count = 0;
    uint64_t SumNs = 0;
    uint64_t MaxNs = 0;
    /// Bucket B counts samples with bit_width(ns) == B, i.e. values
    /// in [2^(B-1), 2^B).
    std::array<uint64_t, HistoBuckets> Buckets{};

    Histogram &merge(const Histogram &RHS) {
      Count += RHS.Count;
      SumNs += RHS.SumNs;
      MaxNs = MaxNs > RHS.MaxNs ? MaxNs : RHS.MaxNs;
      for (unsigned I = 0; I != HistoBuckets; ++I)
        Buckets[I] += RHS.Buckets[I];
      return *this;
    }
    bool operator==(const Histogram &RHS) const = default;

    /// Closed-form quantile estimate (0 <= Q <= 1) from the bucket
    /// counts alone. The continuous 0-based rank Q*(Count-1) is
    /// located in the cumulative bucket walk, then interpolated
    /// linearly across that bucket's value range [2^(B-1), 2^B) under
    /// a uniform within-bucket assumption — the sample at offset k of
    /// the n in a bucket sits at fraction (k + 0.5) / n. Bucket 0
    /// (value 0) maps to 0, and the result is clamped to MaxNs so the
    /// top bucket cannot report beyond the observed maximum. Returns
    /// 0 for an empty histogram.
    double quantileNs(double Q) const;
  };

  std::array<uint64_t, NumMetrics> Counters{};
  std::array<uint64_t, NumGauges> Gauges{};
  std::array<Histogram, NumHistos> Histograms{};

  MetricsSnapshot &merge(const MetricsSnapshot &RHS) {
    for (unsigned I = 0; I != NumMetrics; ++I)
      Counters[I] += RHS.Counters[I];
    for (unsigned I = 0; I != NumGauges; ++I)
      Gauges[I] = Gauges[I] > RHS.Gauges[I] ? Gauges[I] : RHS.Gauges[I];
    for (unsigned I = 0; I != NumHistos; ++I)
      Histograms[I].merge(RHS.Histograms[I]);
    return *this;
  }
  bool operator==(const MetricsSnapshot &RHS) const = default;

  uint64_t counter(Metric M) const {
    return Counters[static_cast<unsigned>(M)];
  }
  uint64_t gauge(Gauge G) const { return Gauges[static_cast<unsigned>(G)]; }
  const Histogram &histogram(Histo H) const {
    return Histograms[static_cast<unsigned>(H)];
  }
};

/// Global metrics control; recording goes to the calling thread's
/// shard.
class Metrics {
public:
  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Starts recording; \p Path (may be empty) is where the process-
  /// exit hook and stop() write the JSON. Resets previous values.
  static bool enable(std::string Path = "");

  /// Stops recording and writes the JSON to the enable() path (skipped
  /// when empty).
  static bool stop();

  /// Zeroes every shard.
  static void reset();

  static void count(Metric M, uint64_t N = 1) {
    if (enabled())
      countImpl(M, N);
  }
  static void gaugeMax(Gauge G, uint64_t Value) {
    if (enabled())
      gaugeMaxImpl(G, Value);
  }
  static void observe(Histo H, uint64_t Ns) {
    if (enabled())
      observeImpl(H, Ns);
  }
  /// The counter tracking degraded verdicts of failure kind \p Kind
  /// (kind as in FailureKind's enumerator order).
  static void countDegraded(unsigned Kind) {
    if (enabled())
      countImpl(static_cast<Metric>(
                    static_cast<unsigned>(Metric::DegradedOverflow) + Kind),
                1);
  }

  /// Merges every thread's shard; deterministic for a deterministic
  /// workload (merge is order-independent).
  static MetricsSnapshot snapshot();

  /// Renders a snapshot as a JSON document.
  static std::string toJson(const MetricsSnapshot &S);

  /// Renders a snapshot in the Prometheus text exposition format
  /// (version 0.0.4): every counter as `pdt_<name> N` with HELP/TYPE
  /// comments, gauges likewise, and each histogram as a cumulative
  /// `_bucket{le="..."}` series plus `_sum`/`_count`. Dots and dashes
  /// in registry names become underscores. The log2 buckets map
  /// exactly: bucket B holds values with bit_width == B, so the
  /// cumulative count through B is the count of values <= 2^B - 1 and
  /// the emitted le values are 0, 1, 3, 7, ..., 2^30 - 1, +Inf (the
  /// clamped top bucket only ever lands in +Inf). Served by depserved
  /// as GET /v1/metricz.
  static std::string toPrometheus(const MetricsSnapshot &S);

  /// Writes snapshot() to \p Path; false on I/O failure.
  static bool writeTo(const std::string &Path);

private:
  static void countImpl(Metric M, uint64_t N);
  static void gaugeMaxImpl(Gauge G, uint64_t Value);
  static void observeImpl(Histo H, uint64_t Ns);
  static std::atomic<bool> EnabledFlag;
};

/// RAII latency sampler: records the scope's duration into \p H when
/// metrics are enabled at construction time.
class LatencyTimer {
public:
  explicit LatencyTimer(Histo H) : H(H) {
    if (Metrics::enabled())
      StartNs = Trace::nowNs();
  }
  ~LatencyTimer() {
    if (StartNs >= 0)
      Metrics::observe(H, static_cast<uint64_t>(Trace::nowNs() - StartNs));
  }
  LatencyTimer(const LatencyTimer &) = delete;
  LatencyTimer &operator=(const LatencyTimer &) = delete;

private:
  Histo H;
  int64_t StartNs = -1;
};

} // namespace pdt

#endif // PDT_SUPPORT_METRICS_H
