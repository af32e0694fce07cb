//===- support/FlightRecorder.cpp - Bounded last-N span rings -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/EventLog.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>

using namespace pdt;

namespace {

/// Parses the bytes component of a PDT_FLIGHT spec: decimal digits
/// with an optional k/K (KiB) or m/M (MiB) suffix.
bool parseBytes(const std::string &S, size_t &Out) {
  if (S.empty())
    return false;
  size_t Mult = 1;
  std::string Digits = S;
  char Last = Digits.back();
  if (Last == 'k' || Last == 'K')
    Mult = 1024, Digits.pop_back();
  else if (Last == 'm' || Last == 'M')
    Mult = 1024 * 1024, Digits.pop_back();
  if (Digits.empty() || Digits.size() > 12)
    return false;
  size_t Value = 0;
  for (char C : Digits) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    Value = Value * 10 + static_cast<size_t>(C - '0');
  }
  Value *= Mult;
  // At least one slot beyond any sane span, at most 1 GiB per thread.
  if (Value < sizeof(TraceEvent) || Value > (size_t(1) << 30))
    return false;
  Out = Value;
  return true;
}

/// The recorder's configuration; the rings themselves are every
/// ThreadTelemetry state's FlightSpans. SlotsPerThread and DumpPath are
/// guarded by ThreadTelemetry::lock(), and Starts is bumped only under
/// it.
struct FlightConfig {
  size_t SlotsPerThread = FlightRecorder::DefaultBytesPerThread /
                          sizeof(TraceEvent);
  std::string DumpPath = "pdt-flight.json";
  std::atomic<bool> Enabled{false};
  /// Bumped by start(): a ring sized by an earlier start is remade
  /// before its next push and skipped by snapshot() and stats().
  std::atomic<uint64_t> Starts{0};
};

FlightConfig &config() {
  // Immortal like the trace path: the crash-dump hook may run after
  // static destruction began.
  static FlightConfig *C = new FlightConfig;
  return *C;
}

} // namespace

bool FlightRecorder::enabled() {
  return config().Enabled.load(std::memory_order_relaxed);
}

bool FlightRecorder::start(size_t BytesPerThread, std::string DumpPath) {
  FlightConfig &C = config();
  {
    std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
    size_t Slots = BytesPerThread / sizeof(TraceEvent);
    C.SlotsPerThread = Slots < 64 ? 64 : Slots;
    if (!DumpPath.empty())
      C.DumpPath = std::move(DumpPath);
    C.Starts.fetch_add(1, std::memory_order_relaxed);
  }
  // Anchor the span clock before the first ring write can observe it.
  Trace::nowNs();
  C.Enabled.store(true, std::memory_order_relaxed);
  Trace::setCaptureBit(Trace::CaptureFlight, true);
  return true;
}

void FlightRecorder::stop() {
  Trace::setCaptureBit(Trace::CaptureFlight, false);
  config().Enabled.store(false, std::memory_order_relaxed);
}

void FlightRecorder::record(const TraceEvent &E) {
  FlightConfig &C = config();
  ThreadTelemetry &State = ThreadTelemetry::local();
  if (State.FlightStart != C.Starts.load(std::memory_order_relaxed)) {
    // The ring predates the last start(): remake it at the current size
    // under the lock, which orders the resize against every reader.
    std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
    State.FlightSpans.resize(C.SlotsPerThread, /*Keep=*/false);
    State.FlightStart = C.Starts.load(std::memory_order_relaxed);
  }
  TraceEvent Slot = E;
  Slot.Tid = State.Tid;
  State.FlightSpans.push(Slot);
}

std::vector<TraceEvent> FlightRecorder::snapshot() {
  FlightConfig &C = config();
  std::vector<TraceEvent> All;
  {
    std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
    for (ThreadTelemetry *State : ThreadTelemetry::all())
      if (State->FlightStart == C.Starts.load(std::memory_order_relaxed))
        State->FlightSpans.copyWindow(All, /*Wraps=*/true);
  }
  std::sort(All.begin(), All.end(), spanPrecedes);
  return All;
}

FlightRecorder::Stats FlightRecorder::stats() {
  FlightConfig &C = config();
  Stats Out;
  std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
  Out.SlotsPerThread = static_cast<uint32_t>(C.SlotsPerThread);
  for (ThreadTelemetry *State : ThreadTelemetry::all()) {
    if (State->FlightStart != C.Starts.load(std::memory_order_relaxed))
      continue;
    uint64_t Count = State->FlightSpans.count();
    uint64_t Cap = State->FlightSpans.capacity();
    ++Out.Threads;
    Out.Recorded += Count;
    Out.Overwritten += Count > Cap ? Count - Cap : 0;
    Out.BytesInUse += Cap * sizeof(TraceEvent);
  }
  return Out;
}

std::string FlightRecorder::toJson(const char *Reason) {
  std::vector<TraceEvent> Events = snapshot();
  Stats S = stats();
  std::string Out;
  Out.reserve(Events.size() * 96 + 512);
  Out += "{\n\"displayTimeUnit\": \"ns\",\n";
  Out += "\"flightRecorder\": {\"reason\": \"";
  Out += Reason ? Reason : "on-demand";
  Out += "\", \"recorded\": " + std::to_string(S.Recorded);
  Out += ", \"overwritten\": " + std::to_string(S.Overwritten);
  Out += ", \"threads\": " + std::to_string(S.Threads);
  Out += ", \"slots_per_thread\": " + std::to_string(S.SlotsPerThread);
  Out += ", \"bytes_in_use\": " + std::to_string(S.BytesInUse);
  Out += ", \"build\": " + buildInfoJson();
  Out += "},\n\"traceEvents\": [\n";
  Trace::appendEventsJson(Out, Events);
  Out += "\n]\n}\n";
  return Out;
}

bool FlightRecorder::dump(const std::string &Path, const char *Reason) {
  if (!writeFile(Path, toJson(Reason)))
    return false;
  Metrics::count(Metric::FlightDumps);
  return true;
}

bool FlightRecorder::postmortem(const char *Reason) {
  std::string Path = dumpPath();
  bool Ok = dump(Path, Reason);
  EventLog::event(EventSeverity::Error, "monitor", "flight-dump",
                  std::string(Reason ? Reason : "postmortem") +
                      (Ok ? " -> " + Path : " (write failed)"));
  return Ok;
}

std::string FlightRecorder::dumpPath() {
  std::lock_guard<std::mutex> Lock(ThreadTelemetry::lock());
  return config().DumpPath;
}

bool FlightRecorder::parseSpec(const std::string &Spec, bool &On,
                               size_t &BytesPerThread,
                               std::string &DumpPath) {
  bool IsOn = false;
  std::vector<std::string> Args;
  if (!splitSwitchSpec(Spec, IsOn, Args))
    return false;
  size_t Bytes = 0;
  if (!Args.empty() && !parseBytes(Args[0], Bytes))
    return false;
  if (Args.size() == 2 && Args[1].empty())
    return false;
  On = IsOn;
  if (Bytes)
    BytesPerThread = Bytes;
  if (Args.size() == 2)
    DumpPath = Args[1];
  return true;
}
