//===- support/Sampler.cpp - Periodic metrics time series -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Sampler.h"

#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
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
  std::FILE *File = nullptr;
  uint64_t IntervalMs = Sampler::DefaultIntervalMs;
  uint64_t Samples = 0;
  MetricsSnapshot Prev;
  std::deque<std::string> Recent;
  std::vector<Series> SeriesList;
  size_t NextSeriesId = 1;
  std::chrono::steady_clock::time_point Epoch;

  std::thread Worker;
  std::mutex WorkerM;
  std::condition_variable WorkerCv;
  bool WorkerStop = false;
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
  if (S.Recent.size() == MaxRecentSamples)
    S.Recent.pop_front();
  S.Recent.push_back(Line);
  if (S.File) {
    std::fwrite(Line.data(), 1, Line.size(), S.File);
    std::fputc('\n', S.File);
    std::fflush(S.File);
  }
}

void workerLoop(uint64_t IntervalMs) {
  SamplerState &S = state();
  std::unique_lock<std::mutex> Lock(S.WorkerM);
  while (!S.WorkerStop) {
    S.WorkerCv.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                        [&S] { return S.WorkerStop; });
    if (S.WorkerStop)
      break;
    Lock.unlock();
    {
      std::lock_guard<std::mutex> StateLock(S.M);
      if (S.Enabled.load(std::memory_order_relaxed))
        appendSampleLocked(S);
    }
    Lock.lock();
  }
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
    if (!Path.empty()) {
      S.File = std::fopen(Path.c_str(), "w");
      FileOk = S.File != nullptr;
      if (S.File) {
        std::string Header =
            "{\"schema\": \"pdt-timeseries-v1\", \"interval_ms\": " +
            std::to_string(IntervalMs) + ", \"build\": " + buildInfoJson() +
            "}\n";
        std::fwrite(Header.data(), 1, Header.size(), S.File);
        std::fflush(S.File);
      }
    }
    S.Enabled.store(true, std::memory_order_relaxed);
  }
  if (IntervalMs) {
    std::lock_guard<std::mutex> Lock(S.WorkerM);
    S.WorkerStop = false;
    S.Worker = std::thread(workerLoop, IntervalMs);
  }
  return FileOk;
}

void Sampler::stop() {
  SamplerState &S = state();
  std::thread Worker;
  {
    std::lock_guard<std::mutex> Lock(S.WorkerM);
    S.WorkerStop = true;
    Worker = std::move(S.Worker);
  }
  S.WorkerCv.notify_all();
  if (Worker.joinable())
    Worker.join();
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Enabled.load(std::memory_order_relaxed)) {
    // One final sample so short runs (and every stop) leave at least
    // one data point past the header.
    appendSampleLocked(S);
    S.Enabled.store(false, std::memory_order_relaxed);
  }
  if (S.File) {
    std::fclose(S.File);
    S.File = nullptr;
  }
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

void Sampler::initFromEnvironment() {
  static bool Done = false;
  if (Done)
    return;
  Done = true;
  std::optional<int64_t> Interval = envInt("PDT_SAMPLE_MS", 1, 3600000);
  std::optional<std::string> Path = envPath("PDT_SAMPLE");
  if (!Interval && !Path)
    return;
  uint64_t IntervalMs =
      Interval ? static_cast<uint64_t>(*Interval) : DefaultIntervalMs;
  if (!Sampler::start(IntervalMs, Path ? *Path : std::string()))
    std::fprintf(stderr, "pdt: warning: cannot open PDT_SAMPLE file %s\n",
                 Path->c_str());
  // Normal exits take the final sample and close the stream; crashes
  // keep every line already flushed.
  std::atexit([] { Sampler::stop(); });
}

namespace {
/// Arms PDT_SAMPLE_MS before main, mirroring Trace/Metrics.
[[maybe_unused]] const bool SamplerEnvInitialized =
    (Sampler::initFromEnvironment(), true);
} // namespace
