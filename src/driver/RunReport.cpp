//===- driver/RunReport.cpp - Versioned per-run analysis report -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/RunReport.h"

#include "core/DependenceTypes.h"
#include "support/BuildInfo.h"
#include "support/CrashSafety.h"
#include "support/Env.h"
#include "support/EventLog.h"
#include "support/Failure.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Profile.h"
#include "support/Sampler.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "support/Watchdog.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

using namespace pdt;

namespace {

struct Recorder {
  std::mutex M;
  std::string Tool = "unknown";
  // Value plus is-it-a-JSON-number flag: numeric workload values
  // render unquoted so the report flattener (ReportDiff) sees them
  // and *_ns workload keys reach the perf-history ledger.
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> Workload;
  TestStats Stats;
  int64_t WallNs = 0;
  std::string EnvPath;
};

Recorder &recorder() {
  // Immortal: the PDT_REPORT atexit/crash writer renders from this
  // state, potentially after static destruction has begun.
  static Recorder *R = new Recorder;
  return *R;
}

void appendStats(std::string &Out, const TestStats &S) {
  Out += "\"stats\": {\n";
  Out += "  \"reference_pairs\": " + std::to_string(S.ReferencePairs) + ",\n";
  Out += "  \"independent_pairs\": " + std::to_string(S.IndependentPairs) +
         ",\n";
  Out += "  \"dimension_histogram\": [";
  for (unsigned I = 0; I != S.DimensionHistogram.size(); ++I) {
    Out += std::to_string(S.DimensionHistogram[I]);
    if (I + 1 != S.DimensionHistogram.size())
      Out += ", ";
  }
  Out += "],\n";
  Out += "  \"separable_subscripts\": " +
         std::to_string(S.SeparableSubscripts) + ",\n";
  Out += "  \"coupled_subscripts\": " + std::to_string(S.CoupledSubscripts) +
         ",\n";
  Out += "  \"nonlinear_subscripts\": " +
         std::to_string(S.NonlinearSubscripts) + ",\n";
  Out += "  \"ziv_subscripts\": " + std::to_string(S.ZIVSubscripts) + ",\n";
  Out += "  \"siv_subscripts\": " + std::to_string(S.SIVSubscripts) + ",\n";
  Out += "  \"miv_subscripts\": " + std::to_string(S.MIVSubscripts) + ",\n";
  Out += "  \"coupled_groups\": " + std::to_string(S.CoupledGroups) + ",\n";
  Out += "  \"groups_with_residual_miv\": " +
         std::to_string(S.GroupsWithResidualMIV) + ",\n";
  Out += "  \"degraded_results\": " + std::to_string(S.DegradedResults) +
         ",\n";
  Out += "  \"fm_budget_hits\": " + std::to_string(S.FMBudgetHits) + ",\n";
  Out += "  \"degraded_by_kind\": {";
  for (unsigned I = 0; I != NumFailureKinds; ++I) {
    Out += I ? ", " : "";
    Out += "\"" +
           json::escape(failureKindName(static_cast<FailureKind>(I))) +
           "\": " + std::to_string(S.DegradedByKind[I]);
  }
  Out += "},\n";
  Out += "  \"tests\": {\n";
  for (unsigned I = 0; I != NumTestKinds; ++I) {
    Out += "    \"" +
           json::escape(testKindName(static_cast<TestKind>(I))) +
           "\": {\"applications\": " + std::to_string(S.Applications[I]) +
           ", \"independences\": " + std::to_string(S.Independences[I]) + "}";
    Out += I + 1 == NumTestKinds ? "\n" : ",\n";
  }
  Out += "  }\n}";
}

void writeReportNow() {
  const std::string &Path = recorder().EnvPath;
  if (!Path.empty() && !RunReport::writeTo(Path))
    std::fprintf(stderr, "pdt: warning: cannot write PDT_REPORT file %s\n",
                 Path.c_str());
}

} // namespace

void RunReport::noteTool(std::string Tool) {
  Recorder &R = recorder();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Tool = std::move(Tool);
}

static void noteWorkloadImpl(std::string Key, std::string Value,
                             bool Numeric) {
  Recorder &R = recorder();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &[K, V] : R.Workload)
    if (K == Key) {
      V = {std::move(Value), Numeric};
      return;
    }
  R.Workload.emplace_back(std::move(Key),
                          std::make_pair(std::move(Value), Numeric));
}

void RunReport::noteWorkload(std::string Key, std::string Value) {
  noteWorkloadImpl(std::move(Key), std::move(Value), /*Numeric=*/false);
}

void RunReport::noteWorkload(std::string Key, uint64_t Value) {
  noteWorkloadImpl(std::move(Key), std::to_string(Value), /*Numeric=*/true);
}

void RunReport::noteStats(const TestStats &Stats) {
  Recorder &R = recorder();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Stats.merge(Stats);
}

void RunReport::noteWallNs(int64_t Ns) {
  Recorder &R = recorder();
  std::lock_guard<std::mutex> Lock(R.M);
  R.WallNs += Ns;
}

void RunReport::reset() {
  Recorder &R = recorder();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Tool = "unknown";
  R.Workload.clear();
  R.Stats = TestStats();
  R.WallNs = 0;
}

std::string RunReport::render() {
  // Copy the recorded state under the lock, render outside it (the
  // crash path may re-enter via writeReportNow with arbitrary locks
  // held elsewhere, but never this one).
  Recorder &R = recorder();
  std::string Tool;
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> Workload;
  TestStats Stats;
  int64_t WallNs;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    Tool = R.Tool;
    Workload = R.Workload;
    Stats = R.Stats;
    WallNs = R.WallNs;
  }
  std::sort(Workload.begin(), Workload.end());

  char Time[32] = "unknown";
  std::time_t Now = std::time(nullptr);
  if (std::tm *UTC = std::gmtime(&Now))
    std::strftime(Time, sizeof(Time), "%Y-%m-%dT%H:%M:%SZ", UTC);

  std::string Out;
  Out.reserve(8192);
  Out += "{\n\"schema\": \"pdt-report-v1\",\n";
  Out += "\"meta\": {\n";
  Out += "  \"tool\": \"" + json::escape(Tool) + "\",\n";
  Out += "  \"build\": " + buildInfoJson() + ",\n";
  Out += "  \"threads\": " +
         std::to_string(ThreadPool::defaultThreadCount()) + ",\n";
  Out += std::string("  \"timestamp\": \"") + Time + "\"\n},\n";

  Out += "\"workload\": {";
  bool First = true;
  for (const auto &[Key, Value] : Workload) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "  \"" + json::escape(Key) + "\": ";
    Out += Value.second ? Value.first
                        : "\"" + json::escape(Value.first) + "\"";
  }
  Out += Workload.empty() ? "},\n" : "\n},\n";

  appendStats(Out, Stats);
  Out += ",\n";

  // Pair-routing counters live outside "stats": routing (batched vs
  // scalar) is an implementation choice, not an analysis result, so
  // report diffs classify "routing.*" as Sched and never gate on it.
  Out += "\"routing\": {\n";
  Out += "  \"batched_ziv\": " + std::to_string(Stats.BatchedZIV) + ",\n";
  Out += "  \"batched_strong_siv\": " +
         std::to_string(Stats.BatchedStrongSIV) + ",\n";
  Out += "  \"scalar_fallback\": " + std::to_string(Stats.ScalarFallback) +
         "\n},\n";

  // Persistent-store counters are routing too (cached vs computed is
  // not an analysis result); "store.*" gets the same Sched, never-gate
  // classification. Recovery activity comes from the metrics section.
  Out += "\"store\": {\n";
  Out += "  \"hits\": " + std::to_string(Stats.StoreHits) + ",\n";
  Out += "  \"misses\": " + std::to_string(Stats.StoreMisses) + "\n},\n";

  // Monitor activity (journal, sampler, flight recorder, watchdog) is
  // operational telemetry about the run, not an analysis result:
  // "monitor.*" gets the Sched never-gate classification, like routing
  // and store. Present even when idle so diffs never see one-sided
  // keys here.
  EventLog::Counts Journal = EventLog::counts();
  Sampler::Summary Samples = Sampler::summary();
  FlightRecorder::Stats Flight = FlightRecorder::stats();
  Out += "\"monitor\": {\n";
  Out += "  \"journal\": {\"info\": " +
         std::to_string(Journal.emitted(EventSeverity::Info)) +
         ", \"warn\": " +
         std::to_string(Journal.emitted(EventSeverity::Warn)) +
         ", \"error\": " +
         std::to_string(Journal.emitted(EventSeverity::Error)) +
         ", \"suppressed\": " + std::to_string(Journal.Suppressed) + "},\n";
  Out += "  \"sampler\": {\"samples\": " + std::to_string(Samples.Samples) +
         ", \"interval_ms\": " + std::to_string(Samples.IntervalMs) + "},\n";
  Out += "  \"flight\": {\"recorded\": " + std::to_string(Flight.Recorded) +
         ", \"overwritten\": " + std::to_string(Flight.Overwritten) +
         ", \"bytes_in_use\": " + std::to_string(Flight.BytesInUse) + "},\n";
  Out += "  \"watchdog_stalls\": " + std::to_string(Watchdog::stallCount()) +
         ",\n";
  Out += "  \"trace_dropped_spans\": " + std::to_string(Trace::droppedSpans()) +
         "\n},\n";

  // Metrics::toJson is a full document ending in "}\n"; embed it as
  // the member value minus the trailing newline.
  std::string MetricsJson = Metrics::toJson(Metrics::snapshot());
  while (!MetricsJson.empty() && MetricsJson.back() == '\n')
    MetricsJson.pop_back();
  Out += "\"metrics\": " + MetricsJson;

  Profile P = Profile::fromTrace();
  if (P.NumEvents != 0) {
    std::string ProfileJson = P.toJson();
    while (!ProfileJson.empty() && ProfileJson.back() == '\n')
      ProfileJson.pop_back();
    Out += ",\n\"profile\": " + ProfileJson;
  }

  if (WallNs != 0)
    Out += ",\n\"timing\": {\"wall_ns\": " + std::to_string(WallNs) + "}";

  Out += "\n}\n";
  return Out;
}

bool RunReport::writeTo(const std::string &Path) {
  return writeFile(Path, render());
}

namespace {
/// Arms PDT_REPORT before main (hardened parsing): installs the
/// process-exit and crash-flush writers and enables metrics so the
/// report always carries counters. support/Telemetry.h, which arms the
/// support sinks, cannot see the driver.
[[maybe_unused]] const bool ReportArmed = [] {
  std::optional<std::string> Path = envPath("PDT_REPORT");
  if (!Path)
    return true;
  recorder().EnvPath = std::move(*Path);
  // A report without counters is hollow: arm metrics (cheap, sharded
  // relaxed stores) unless something else — PDT_METRICS — already
  // did. Tracing stays opt-in (PDT_TRACE / PDT_PROFILE); the profile
  // section appears whenever spans were recorded.
  if (!Metrics::enabled())
    Metrics::enable();
  std::atexit([] { writeReportNow(); });
  registerCrashFlush("PDT_REPORT", [] { writeReportNow(); });
  return true;
}();
} // namespace
