//===- support/Sampler.h - Periodic metrics time series ---------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live telemetry sampler: a background thread snapshots the
/// Metrics registry on a configurable interval and appends the deltas
/// as a pdt-timeseries-v1 JSONL stream, so a multi-hour fuzz campaign
/// or the future depserved daemon can answer "what happened over
/// time" instead of only "what happened in total".
///
/// Schema: the first line is a header object
///   {"schema":"pdt-timeseries-v1","interval_ms":N,"build":{...}}
/// and every sample line is
///   {"t_ms":N,"counters":{<name>:delta,...},"gauges":{...},
///    "series":{<custom>:value,...}}
/// with zero deltas omitted to keep long idle stretches cheap.
///
/// Custom series: any subsystem can registerSeries("fuzz.stratum.zip",
/// fn) to publish its own gauge — the fuzzer exports per-stratum
/// kernel counts this way. The callback runs on the sampler thread and
/// must be cheap and thread-safe (typically one relaxed atomic load).
///
/// Armed via PDT_SAMPLE_MS=interval (+ PDT_SAMPLE=out.jsonl for the
/// file; without a path samples go to the bounded in-memory ring only,
/// which also feeds the run report's "sampler" section).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_SAMPLER_H
#define PDT_SUPPORT_SAMPLER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pdt {

class Sampler {
public:
  static constexpr uint64_t DefaultIntervalMs = 250;

  struct Summary {
    uint64_t Samples = 0;
    uint64_t IntervalMs = 0;
  };

  static bool enabled();

  /// Starts sampling every \p IntervalMs milliseconds into \p Path
  /// (empty: memory only). \p IntervalMs == 0 starts without a thread
  /// — tests and benches then drive sampleOnceForTest(). Enables
  /// Metrics when nothing else has. Returns false if the file cannot
  /// be opened (memory sampling still starts).
  static bool start(uint64_t IntervalMs = DefaultIntervalMs,
                    const std::string &Path = "");

  /// Takes one final sample, stops the thread, closes the file.
  static void stop();

  /// Takes one sample immediately; the sampling thread calls it too.
  static void sampleOnceForTest();

  /// Publishes a custom series; returns an id for unregisterSeries.
  /// \p Fn runs on the sampler thread — keep it to an atomic load.
  static size_t registerSeries(std::string Name,
                               std::function<uint64_t()> Fn);
  static void unregisterSeries(size_t Id);

  static Summary summary();

  /// The most recent sample lines (bounded ring; header excluded).
  static std::vector<std::string> recentLines();
};

} // namespace pdt

#endif // PDT_SUPPORT_SAMPLER_H
