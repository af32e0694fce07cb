//===- support/EventLog.cpp - Severity-tagged JSONL event journal ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/ErrorHandling.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/RequestContext.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>

using namespace pdt;

const char *pdt::eventSeverityName(EventSeverity Sev) {
  switch (Sev) {
  case EventSeverity::Info:
    return "info";
  case EventSeverity::Warn:
    return "warn";
  case EventSeverity::Error:
    return "error";
  }
  pdt_unreachable("covered switch");
}

namespace {

constexpr size_t MaxRecentLines = 256;
constexpr uint64_t DefaultRateMax = 32;
constexpr uint64_t DefaultRateWindowMs = 1000;

/// Per-(layer,what) rate window.
struct RateCell {
  uint64_t WindowStartMs = 0;
  uint64_t EmittedInWindow = 0;
  uint64_t Suppressed = 0; ///< Since the last emitted line of this key.
};

struct JournalState {
  std::mutex M;
  // Outside the mutex so enabled() and the event() early-out are one
  // relaxed load — degradation sites check it before building detail
  // strings.
  std::atomic<bool> Enabled{false};
  JsonlStream Stream;
  std::deque<std::string> Recent;
  EventLog::Counts Counts;
  std::map<std::pair<const char *, const char *>, RateCell> Rates;
  uint64_t RateMax = DefaultRateMax;
  uint64_t RateWindowMs = DefaultRateWindowMs;
  uint64_t (*ClockMs)() = nullptr;
  std::chrono::steady_clock::time_point Epoch;
  /// Per-process monotonic line sequence. Deliberately NOT reset by
  /// start(): a process that journals to several files in turn still
  /// hands out globally ordered numbers, so interleaved multi-writer
  /// tails can be totally ordered by (file, seq) -> seq alone.
  uint64_t Seq = 0;
};

JournalState &state() {
  // Immortal: events may be journaled from crash hooks after static
  // destruction began.
  static JournalState *S = new JournalState;
  return *S;
}

uint64_t nowMsLocked(JournalState &S) {
  if (S.ClockMs)
    return S.ClockMs();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - S.Epoch)
          .count());
}

} // namespace

bool EventLog::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool EventLog::start(const std::string &Path) {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Stream.close();
  S.Recent.clear();
  S.Counts = Counts();
  S.Rates.clear();
  S.Epoch = std::chrono::steady_clock::now();
  S.Enabled.store(true, std::memory_order_relaxed);
  return Path.empty() ||
         S.Stream.open(Path, JsonlStream::header("pdt-events-v1"));
}

void EventLog::stop() {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Enabled.store(false, std::memory_order_relaxed);
  S.Stream.close();
}

void EventLog::event(
    EventSeverity Sev, const char *Layer, const char *What,
    const std::string &Detail,
    std::initializer_list<std::pair<const char *, uint64_t>> Fields) {
  JournalState &S = state();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return;
  std::lock_guard<std::mutex> Lock(S.M);
  if (!S.Enabled.load(std::memory_order_relaxed))
    return;
  uint64_t NowMs = nowMsLocked(S);
  RateCell &Cell = S.Rates[{Layer, What}];
  if (NowMs - Cell.WindowStartMs >= S.RateWindowMs) {
    Cell.WindowStartMs = NowMs;
    Cell.EmittedInWindow = 0;
  }
  if (Cell.EmittedInWindow >= S.RateMax) {
    ++Cell.Suppressed;
    ++S.Counts.Suppressed;
    Metrics::count(Metric::EventsSuppressed);
    return;
  }
  ++Cell.EmittedInWindow;
  ++S.Counts.Emitted[static_cast<unsigned>(Sev)];
  Metrics::count(Metric::EventsEmitted);

  std::string Line = "{\"t_ms\": " + std::to_string(NowMs);
  Line += ", \"seq\": " + std::to_string(++S.Seq);
  Line += ", \"sev\": \"";
  Line += eventSeverityName(Sev);
  Line += "\", \"layer\": \"";
  Line += json::escape(Layer);
  Line += "\", \"what\": \"";
  Line += json::escape(What);
  Line += "\"";
  // Request attribution: an event emitted inside a serving request's
  // RequestContext scope names the request it served.
  if (uint32_t Req = RequestContext::current()) {
    std::string Id = RequestContext::idFor(Req);
    if (!Id.empty())
      Line += ", \"req\": \"" + json::escape(Id) + "\"";
  }
  if (!Detail.empty())
    Line += ", \"detail\": \"" + json::escape(Detail) + "\"";
  if (Fields.size()) {
    Line += ", \"fields\": {";
    bool First = true;
    for (const auto &[Key, Value] : Fields) {
      Line += First ? "" : ", ";
      First = false;
      Line += "\"" + json::escape(Key) + "\": " + std::to_string(Value);
    }
    Line += "}";
  }
  if (Cell.Suppressed) {
    Line += ", \"suppressed\": " + std::to_string(Cell.Suppressed);
    Cell.Suppressed = 0;
  }
  Line += "}";
  // Crash safety is per line: a SIGABRT one instruction later still
  // leaves a parseable journal.
  S.Stream.writeLine(Line);
  if (S.Recent.size() == MaxRecentLines)
    S.Recent.pop_front();
  S.Recent.push_back(std::move(Line));
}

EventLog::Counts EventLog::counts() {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Counts;
}

std::vector<std::string> EventLog::recentLines() {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return {S.Recent.begin(), S.Recent.end()};
}

void EventLog::configureRateLimit(uint64_t MaxPerWindow, uint64_t WindowMs) {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.RateMax = MaxPerWindow ? MaxPerWindow : 1;
  S.RateWindowMs = WindowMs ? WindowMs : 1;
}

void EventLog::setClockForTest(uint64_t (*NowMs)()) {
  JournalState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.ClockMs = NowMs;
}
