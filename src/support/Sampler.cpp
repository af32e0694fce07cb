//===- support/Sampler.cpp - Periodic metrics time series -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Sampler.h"

#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

using namespace pdt;

namespace {

constexpr size_t MaxRecentSamples = 4096;

struct Series {
  size_t Id;
  std::string Name;
  std::function<uint64_t()> Fn;
};

struct SamplerState {
  std::mutex M;
  std::atomic<bool> Enabled{false};
  JsonlStream Stream;
  uint64_t IntervalMs = Sampler::DefaultIntervalMs;
  uint64_t Samples = 0;
  MetricsSnapshot Prev;
  std::deque<std::string> Recent;
  std::vector<Series> SeriesList;
  size_t NextSeriesId = 1;
  std::chrono::steady_clock::time_point Epoch;
  PeriodicThread Ticker;
};

SamplerState &state() {
  // Immortal, like every telemetry singleton in support/.
  static SamplerState *S = new SamplerState;
  return *S;
}

void appendSampleLocked(SamplerState &S) {
  MetricsSnapshot Snap = Metrics::snapshot();
  uint64_t TMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - S.Epoch)
          .count());

  std::string Line = "{\"t_ms\": " + std::to_string(TMs);
  Line += ", \"counters\": {";
  bool First = true;
  for (unsigned I = 0; I != NumMetrics; ++I) {
    uint64_t Delta = Snap.Counters[I] - S.Prev.Counters[I];
    if (!Delta)
      continue;
    Line += First ? "" : ", ";
    First = false;
    Line += "\"";
    Line += metricName(static_cast<Metric>(I));
    Line += "\": " + std::to_string(Delta);
  }
  Line += "}, \"gauges\": {";
  First = true;
  for (unsigned I = 0; I != NumGauges; ++I) {
    if (!Snap.Gauges[I])
      continue;
    Line += First ? "" : ", ";
    First = false;
    Line += "\"";
    Line += gaugeName(static_cast<Gauge>(I));
    Line += "\": " + std::to_string(Snap.Gauges[I]);
  }
  Line += "}";
  if (!S.SeriesList.empty()) {
    Line += ", \"series\": {";
    First = true;
    for (const Series &Ser : S.SeriesList) {
      Line += First ? "" : ", ";
      First = false;
      Line += "\"" + json::escape(Ser.Name) + "\": " +
              std::to_string(Ser.Fn ? Ser.Fn() : 0);
    }
    Line += "}";
  }
  Line += "}";

  S.Prev = Snap;
  ++S.Samples;
  Metrics::count(Metric::SamplerSamples);
  S.Stream.writeLine(Line);
  if (S.Recent.size() == MaxRecentSamples)
    S.Recent.pop_front();
  S.Recent.push_back(std::move(Line));
}

} // namespace

bool Sampler::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool Sampler::start(uint64_t IntervalMs, const std::string &Path) {
  stop();
  SamplerState &S = state();
  bool FileOk = true;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.IntervalMs = IntervalMs;
    S.Samples = 0;
    S.Recent.clear();
    S.Epoch = std::chrono::steady_clock::now();
    if (!Metrics::enabled())
      Metrics::enable();
    S.Prev = Metrics::snapshot();
    if (!Path.empty())
      FileOk = S.Stream.open(
          Path, "{\"schema\": \"pdt-timeseries-v1\", \"interval_ms\": " +
                    std::to_string(IntervalMs) +
                    ", \"build\": " + buildInfoJson() + "}");
    S.Enabled.store(true, std::memory_order_relaxed);
  }
  S.Ticker.start(IntervalMs, sampleOnceForTest);
  return FileOk;
}

void Sampler::stop() {
  SamplerState &S = state();
  S.Ticker.stop();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Enabled.load(std::memory_order_relaxed)) {
    // One final sample so short runs (and every stop) leave at least
    // one data point past the header.
    appendSampleLocked(S);
    S.Enabled.store(false, std::memory_order_relaxed);
  }
  S.Stream.close();
}

void Sampler::sampleOnceForTest() {
  SamplerState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Enabled.load(std::memory_order_relaxed))
    appendSampleLocked(S);
}

size_t Sampler::registerSeries(std::string Name,
                               std::function<uint64_t()> Fn) {
  SamplerState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  size_t Id = S.NextSeriesId++;
  S.SeriesList.push_back({Id, std::move(Name), std::move(Fn)});
  return Id;
}

void Sampler::unregisterSeries(size_t Id) {
  SamplerState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  for (size_t I = 0; I != S.SeriesList.size(); ++I)
    if (S.SeriesList[I].Id == Id) {
      S.SeriesList.erase(S.SeriesList.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
}

Sampler::Summary Sampler::summary() {
  SamplerState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return {S.Samples, S.IntervalMs};
}

std::vector<std::string> Sampler::recentLines() {
  SamplerState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return {S.Recent.begin(), S.Recent.end()};
}
