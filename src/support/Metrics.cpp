//===- support/Metrics.cpp - Per-thread-sharded metrics registry ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/ErrorHandling.h"
#include "support/Telemetry.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <type_traits>

using namespace pdt;

std::atomic<bool> Metrics::EnabledFlag{false};

const char *pdt::metricName(Metric M) {
  switch (M) {
  case Metric::GraphBuilds:
    return "graph.builds";
  case Metric::GraphBuildNs:
    return "graph.build_ns";
  case Metric::PairsEnumerated:
    return "graph.pairs.enumerated";
  case Metric::PairsTested:
    return "graph.pairs.tested";
  case Metric::PairsIndependent:
    return "graph.pairs.independent";
  case Metric::PairsDegraded:
    return "graph.pairs.degraded";
  case Metric::EdgesEmitted:
    return "graph.edges";
  case Metric::AccessesLowered:
    return "lowering.accesses";
  case Metric::MemoHits:
    return "lowering.memo.hits";
  case Metric::MemoMisses:
    return "lowering.memo.misses";
  case Metric::PoolParallelFors:
    return "pool.parallel_fors";
  case Metric::PoolChunksRun:
    return "pool.chunks_run";
  case Metric::PoolSteals:
    return "pool.steals";
  case Metric::BudgetPairSkips:
    return "budget.pair_skips";
  case Metric::BudgetDeadlineSkips:
    return "budget.deadline_skips";
  case Metric::FMBudgetHits:
    return "budget.fm_hits";
  case Metric::DegradedOverflow:
    return "degraded.overflow";
  case Metric::DegradedBudget:
    return "degraded.budget-exhausted";
  case Metric::DegradedSymbolic:
    return "degraded.symbolic-unknown";
  case Metric::DegradedInternal:
    return "degraded.internal-invariant";
  case Metric::DegradedMalformed:
    return "degraded.malformed-input";
  case Metric::FuzzKernels:
    return "fuzz.kernels";
  case Metric::FuzzPairsChecked:
    return "fuzz.pairs_checked";
  case Metric::FuzzDiscrepancies:
    return "fuzz.discrepancies";
  case Metric::FuzzExactnessLosses:
    return "fuzz.exactness_losses";
  case Metric::FuzzShrinkSteps:
    return "fuzz.shrink_steps";
  case Metric::StoreHits:
    return "store.hits";
  case Metric::StoreMisses:
    return "store.misses";
  case Metric::StoreInserts:
    return "store.inserts";
  case Metric::StoreRecordsLoaded:
    return "store.recovery.records_loaded";
  case Metric::StoreCorruptRecords:
    return "store.recovery.corrupt_records";
  case Metric::StoreTornTails:
    return "store.recovery.torn_tails";
  case Metric::StoreStaleSegments:
    return "store.recovery.stale_segments";
  case Metric::StoreQuarantined:
    return "store.recovery.quarantined";
  case Metric::StoreRebuilds:
    return "store.recovery.rebuilds";
  case Metric::StoreWriteFailures:
    return "store.write_failures";
  case Metric::TraceSpanDrops:
    return "trace.dropped_spans";
  case Metric::FlightDumps:
    return "monitor.flight.dumps";
  case Metric::WatchdogStalls:
    return "monitor.watchdog.stalls";
  case Metric::EventsEmitted:
    return "monitor.events.emitted";
  case Metric::EventsSuppressed:
    return "monitor.events.suppressed";
  case Metric::SamplerSamples:
    return "monitor.sampler.samples";
  case Metric::ServeConnections:
    return "serve.connections";
  case Metric::ServeRejected:
    return "serve.rejected_429";
  case Metric::ServeRequests:
    return "serve.requests";
  case Metric::ServeClientErrors:
    return "serve.errors.client";
  case Metric::ServeServerErrors:
    return "serve.errors.server";
  case Metric::ServeAnalyses:
    return "serve.analyses";
  }
  pdt_unreachable("covered switch");
}

const char *pdt::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::PoolWorkers:
    return "pool.workers.max";
  case Gauge::PoolQueueDepth:
    return "pool.queue_depth.max";
  }
  pdt_unreachable("covered switch");
}

const char *pdt::histoName(Histo H) {
  switch (H) {
  case Histo::PairTestNs:
    return "latency.pair_test_ns";
  case Histo::DeltaNs:
    return "latency.delta_ns";
  case Histo::FMNs:
    return "latency.fm_ns";
  case Histo::FuzzKernelNs:
    return "latency.fuzz_kernel_ns";
  case Histo::ServeRequestNs:
    return "latency.serve_request_ns";
  }
  pdt_unreachable("covered switch");
}

double MetricsSnapshot::Histogram::quantileNs(double Q) const {
  if (Count == 0)
    return 0.0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  double Rank = Q * static_cast<double>(Count - 1);
  uint64_t Before = 0;
  for (unsigned B = 0; B != HistoBuckets; ++B) {
    uint64_t N = Buckets[B];
    if (!N) {
      continue;
    }
    if (Rank < static_cast<double>(Before + N)) {
      if (B == 0)
        return 0.0;
      double Lo = std::ldexp(1.0, static_cast<int>(B) - 1);
      double Hi = std::ldexp(1.0, static_cast<int>(B));
      double Fraction =
          (Rank - static_cast<double>(Before) + 0.5) / static_cast<double>(N);
      double V = Lo + Fraction * (Hi - Lo);
      return MaxNs && V > static_cast<double>(MaxNs)
                 ? static_cast<double>(MaxNs)
                 : V;
    }
    Before += N;
  }
  return static_cast<double>(MaxNs);
}

namespace {

/// Where stop() writes; guarded by ThreadTelemetry::lock(). Immortal:
/// exit-time report writers may run after static destruction began.
std::string &metricsPath() {
  static std::string *Path = new std::string;
  return *Path;
}

/// The calling thread's cell of the MetricsSnapshot field \p Offset
/// bytes in (offsetof needs the standard layout).
static_assert(std::is_standard_layout_v<MetricsSnapshot>);
std::atomic<uint64_t> &cell(size_t Offset) {
  return ThreadTelemetry::local().MetricCells.W[Offset / sizeof(uint64_t)];
}

/// Single-writer relaxed increment: cheaper than a fetch_add and race-
/// free because only the thread holding the state stores to its cells.
void relaxedAdd(std::atomic<uint64_t> &Cell, uint64_t N) {
  Cell.store(Cell.load(std::memory_order_relaxed) + N,
             std::memory_order_relaxed);
}

void relaxedMax(std::atomic<uint64_t> &Cell, uint64_t V) {
  if (Cell.load(std::memory_order_relaxed) < V)
    Cell.store(V, std::memory_order_relaxed);
}

} // namespace

void Metrics::countImpl(Metric M, uint64_t N) {
  relaxedAdd(cell(offsetof(MetricsSnapshot, Counters) +
                  static_cast<unsigned>(M) * sizeof(uint64_t)),
             N);
}

void Metrics::gaugeMaxImpl(Gauge G, uint64_t Value) {
  relaxedMax(cell(offsetof(MetricsSnapshot, Gauges) +
                  static_cast<unsigned>(G) * sizeof(uint64_t)),
             Value);
}

void Metrics::observeImpl(Histo H, uint64_t Ns) {
  using Histogram = MetricsSnapshot::Histogram;
  size_t At = offsetof(MetricsSnapshot, Histograms) +
              static_cast<unsigned>(H) * sizeof(Histogram);
  relaxedAdd(cell(At + offsetof(Histogram, Count)), 1);
  relaxedAdd(cell(At + offsetof(Histogram, SumNs)), Ns);
  relaxedMax(cell(At + offsetof(Histogram, MaxNs)), Ns);
  unsigned Bucket = std::bit_width(Ns);
  if (Bucket >= HistoBuckets)
    Bucket = HistoBuckets - 1;
  relaxedAdd(
      cell(At + offsetof(Histogram, Buckets) + Bucket * sizeof(uint64_t)), 1);
}

bool Metrics::enable(std::string Path) {
  reset();
  {
    std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
    metricsPath() = std::move(Path);
  }
  // Touch the span clock so its one-time calibration is paid here, at
  // arming time, not inside the first LatencyTimer.
  Trace::nowNs();
  EnabledFlag.store(true, std::memory_order_relaxed);
  return true;
}

bool Metrics::stop() {
  EnabledFlag.store(false, std::memory_order_relaxed);
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
    Path = metricsPath();
  }
  if (Path.empty())
    return true;
  return writeTo(Path);
}

void Metrics::reset() {
  std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
  for (ThreadTelemetry *State : ThreadTelemetry::all())
    State->MetricCells.store(MetricsSnapshot());
}

MetricsSnapshot Metrics::snapshot() {
  MetricsSnapshot Out;
  std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
  for (ThreadTelemetry *State : ThreadTelemetry::all())
    Out.merge(State->MetricCells.load());
  return Out;
}

std::string Metrics::toJson(const MetricsSnapshot &S) {
  std::string Out;
  Out += "{\n  \"counters\": {\n";
  for (unsigned I = 0; I != NumMetrics; ++I) {
    Out += "    \"";
    Out += metricName(static_cast<Metric>(I));
    Out += "\": " + std::to_string(S.Counters[I]);
    Out += I + 1 == NumMetrics ? "\n" : ",\n";
  }
  Out += "  },\n  \"gauges\": {\n";
  for (unsigned I = 0; I != NumGauges; ++I) {
    Out += "    \"";
    Out += gaugeName(static_cast<Gauge>(I));
    Out += "\": " + std::to_string(S.Gauges[I]);
    Out += I + 1 == NumGauges ? "\n" : ",\n";
  }
  Out += "  },\n  \"histograms\": {\n";
  for (unsigned I = 0; I != NumHistos; ++I) {
    const MetricsSnapshot::Histogram &H = S.Histograms[I];
    Out += "    \"";
    Out += histoName(static_cast<Histo>(I));
    Out += "\": {\"count\": " + std::to_string(H.Count);
    Out += ", \"sum_ns\": " + std::to_string(H.SumNs);
    Out += ", \"max_ns\": " + std::to_string(H.MaxNs);
    char Quantiles[128];
    std::snprintf(Quantiles, sizeof(Quantiles),
                  ", \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f",
                  H.quantileNs(0.50), H.quantileNs(0.95), H.quantileNs(0.99));
    Out += Quantiles;
    Out += ", \"log2_buckets\": [";
    for (unsigned B = 0; B != HistoBuckets; ++B) {
      Out += std::to_string(H.Buckets[B]);
      if (B + 1 != HistoBuckets)
        Out += ", ";
    }
    Out += "]}";
    Out += I + 1 == NumHistos ? "\n" : ",\n";
  }
  Out += "  },\n  \"derived\": {\n";
  double BuildSecs = S.counter(Metric::GraphBuildNs) / 1e9;
  double PairsPerSec =
      BuildSecs > 0 ? S.counter(Metric::PairsTested) / BuildSecs : 0;
  uint64_t Lookups =
      S.counter(Metric::MemoHits) + S.counter(Metric::MemoMisses);
  double HitRate =
      Lookups ? static_cast<double>(S.counter(Metric::MemoHits)) / Lookups : 0;
  char Buffer[128];
  std::snprintf(Buffer, sizeof(Buffer),
                "    \"pairs_per_sec\": %.1f,\n"
                "    \"memo_hit_rate\": %.4f\n",
                PairsPerSec, HitRate);
  Out += Buffer;
  Out += "  }\n}\n";
  return Out;
}

namespace {

/// "graph.pairs.tested" -> "pdt_graph_pairs_tested": the registry's
/// dotted names mangled into the Prometheus metric-name alphabet
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string promName(const char *Registry) {
  std::string Out = "pdt_";
  for (const char *P = Registry; *P; ++P) {
    char C = *P;
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

void promHeader(std::string &Out, const std::string &Name,
                const char *Registry, const char *Type) {
  Out += "# HELP " + Name + " pdt registry ";
  Out += Type;
  Out += " ";
  Out += Registry;
  Out += "\n# TYPE " + Name + " ";
  Out += Type;
  Out += "\n";
}

} // namespace

std::string Metrics::toPrometheus(const MetricsSnapshot &S) {
  std::string Out;
  Out.reserve(8192);
  for (unsigned I = 0; I != NumMetrics; ++I) {
    const char *Registry = metricName(static_cast<Metric>(I));
    std::string Name = promName(Registry);
    promHeader(Out, Name, Registry, "counter");
    Out += Name + " " + std::to_string(S.Counters[I]) + "\n";
  }
  for (unsigned I = 0; I != NumGauges; ++I) {
    const char *Registry = gaugeName(static_cast<Gauge>(I));
    std::string Name = promName(Registry);
    promHeader(Out, Name, Registry, "gauge");
    Out += Name + " " + std::to_string(S.Gauges[I]) + "\n";
  }
  for (unsigned I = 0; I != NumHistos; ++I) {
    const char *Registry = histoName(static_cast<Histo>(I));
    std::string Name = promName(Registry);
    const MetricsSnapshot::Histogram &H = S.Histograms[I];
    promHeader(Out, Name, Registry, "histogram");
    // Exact cumulative upper bounds: bucket B counts bit_width == B,
    // i.e. integers in [2^(B-1), 2^B - 1], so the running total
    // through B is the count of samples <= 2^B - 1. The clamped
    // overflow bucket (B = HistoBuckets - 1) has no finite bound and
    // is covered by +Inf alone.
    uint64_t Cumulative = 0;
    for (unsigned B = 0; B + 1 != HistoBuckets; ++B) {
      Cumulative += H.Buckets[B];
      uint64_t Le = B == 0 ? 0 : (uint64_t(1) << B) - 1;
      Out += Name + "_bucket{le=\"" + std::to_string(Le) + "\"} " +
             std::to_string(Cumulative) + "\n";
    }
    Out += Name + "_bucket{le=\"+Inf\"} " + std::to_string(H.Count) + "\n";
    Out += Name + "_sum " + std::to_string(H.SumNs) + "\n";
    Out += Name + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

bool Metrics::writeTo(const std::string &Path) {
  return writeFile(Path, toJson(snapshot()));
}
