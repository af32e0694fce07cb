//===- support/Trace.cpp - Scoped spans as Chrome trace events ------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/RequestContext.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

using namespace pdt;

std::atomic<unsigned> Trace::CaptureFlags{0};

namespace {

/// Per-thread span cap for the full buffers. Long fuzz campaigns used
/// to grow these without bound; the cap turns that into counted drops.
constexpr uint32_t DefaultMaxSpansPerThread = 1u << 20;
std::atomic<uint32_t> MaxSpansCap{DefaultMaxSpansPerThread};
/// Multi-writer (any capped thread), so a real fetch_add — the path is
/// already off the happy path when it runs.
std::atomic<uint64_t> DroppedSpanCount{0};

} // namespace

namespace {

/// Events one thread recorded. Single-writer publish: the owning
/// thread writes Events[N] and then stores Size = N + 1 (release)
/// without taking the mutex — the armed hot path is two plain stores.
/// The mutex serializes only the rare structural operations (growth by
/// the owner, snapshot/clear by the collector); readers load Size
/// (acquire) under the mutex and copy that stable prefix. The
/// collector's shared_ptr keeps the buffer alive past thread exit so
/// helper-thread spans survive until the dump.
struct ThreadBuffer {
  std::mutex M;
  std::vector<TraceEvent> Events = std::vector<TraceEvent>(1024);
  std::atomic<uint32_t> Size{0};
  uint32_t Tid = 0;
};

/// Process-wide registry of thread buffers plus the output path.
struct Collector {
  std::mutex M;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  std::string Path;

  std::shared_ptr<ThreadBuffer> registerThread() {
    auto Buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> Lock(M);
    Buffer->Tid = static_cast<uint32_t>(Buffers.size());
    Buffers.push_back(Buffer);
    return Buffer;
  }
};

Collector &collector() {
  // Immortal (leaked on purpose): exit-time flush hooks — the
  // PDT_REPORT writer, crash flushes — may run after this TU's
  // static destructors would have fired, so the collector must never
  // be destroyed. Still reachable through the static pointer, so
  // LeakSanitizer stays quiet.
  static Collector *C = new Collector;
  return *C;
}

ThreadBuffer &threadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> Buffer =
      collector().registerThread();
  return *Buffer;
}

/// Escapes a span name for a JSON string literal (names are literals
/// under our control, but a stray quote must not corrupt the file).
void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
}

} // namespace

namespace {

/// The span clock. steady_clock::now() costs ~30 ns per read through
/// the vDSO, which alone would blow the < 5% armed-overhead budget
/// (two reads per span, two more per latency sample). On x86-64 we
/// read the invariant TSC instead (~12 ns with RDTSCP, whose
/// wait-for-prior-instructions ordering keeps program-order reads
/// monotonic, so span nesting survives) and convert with a ratio
/// calibrated once against steady_clock. Everywhere else — and should
/// calibration degenerate — steady_clock remains the source.
struct SpanClock {
  std::chrono::steady_clock::time_point Anchor;
#if defined(__x86_64__) || defined(__i386__)
  bool UseTsc = false;
  uint64_t Tsc0 = 0;
  double NsPerTick = 0.0;
#endif

  SpanClock() {
    Anchor = std::chrono::steady_clock::now();
#if defined(__x86_64__) || defined(__i386__)
    unsigned Aux;
    Tsc0 = __rdtscp(&Aux);
    // ~1 ms calibration spin: plenty to estimate the tick rate to a
    // fraction of a percent, and paid once at arming time (start()
    // touches the clock before any span can).
    std::chrono::steady_clock::time_point T1;
    do {
      T1 = std::chrono::steady_clock::now();
    } while (T1 - Anchor < std::chrono::milliseconds(1));
    uint64_t Tsc1 = __rdtscp(&Aux);
    if (Tsc1 > Tsc0) {
      NsPerTick = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      T1 - Anchor)
                      .count() /
                  static_cast<double>(Tsc1 - Tsc0);
      UseTsc = NsPerTick > 0.0;
    }
#endif
  }
};

const SpanClock &spanClock() {
  static const SpanClock C;
  return C;
}

} // namespace

int64_t Trace::nowNs() {
  const SpanClock &C = spanClock();
#if defined(__x86_64__) || defined(__i386__)
  if (C.UseTsc) {
    unsigned Aux;
    return static_cast<int64_t>(
        static_cast<double>(__rdtscp(&Aux) - C.Tsc0) * C.NsPerTick);
  }
#endif
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - C.Anchor)
      .count();
}

void Trace::setCaptureBit(CaptureBit Bit, bool On) {
  if (On)
    CaptureFlags.fetch_or(Bit, std::memory_order_relaxed);
  else
    CaptureFlags.fetch_and(~static_cast<unsigned>(Bit),
                           std::memory_order_relaxed);
}

void Trace::setMaxSpansPerThread(uint32_t Cap) {
  MaxSpansCap.store(Cap ? Cap : DefaultMaxSpansPerThread,
                    std::memory_order_relaxed);
}

uint32_t Trace::maxSpansPerThread() {
  return MaxSpansCap.load(std::memory_order_relaxed);
}

uint64_t Trace::droppedSpans() {
  return DroppedSpanCount.load(std::memory_order_relaxed);
}

void Trace::record(const char *Name, const char *Category, int16_t Kind,
                   int64_t StartNs, int64_t EndNs) {
  unsigned Flags = CaptureFlags.load(std::memory_order_relaxed);
  // Request attribution: one thread-local read per recorded span. The
  // token travels with the event into both consumers, so flight slots
  // and full buffers agree on which request a span served.
  uint32_t Req = RequestContext::current();
  if (Flags & CaptureFlight)
    FlightRecorder::record(
        {Name, Category, 0, Kind, Req, StartNs, EndNs - StartNs});
  if (!(Flags & CaptureFull))
    return;
  ThreadBuffer &Buffer = threadBuffer();
  uint32_t N = Buffer.Size.load(std::memory_order_relaxed);
  if (N >= MaxSpansCap.load(std::memory_order_relaxed)) {
    // At the cap: the span is dropped, not silently — the count feeds
    // the run report's "flight" section and the trace.dropped_spans
    // metric.
    DroppedSpanCount.fetch_add(1, std::memory_order_relaxed);
    Metrics::count(Metric::TraceSpanDrops);
    return;
  }
  if (N == Buffer.Events.size()) {
    // Growth is structural: take the mutex so a concurrent snapshot
    // never reads across a reallocation.
    std::lock_guard<std::mutex> Lock(Buffer.M);
    Buffer.Events.resize(Buffer.Events.size() * 2);
  }
  Buffer.Events[N] = {Name, Category, Buffer.Tid,
                      Kind, Req,      StartNs,    EndNs - StartNs};
  Buffer.Size.store(N + 1, std::memory_order_release);
}

bool Trace::start(std::string Path) {
  clear();
  {
    Collector &C = collector();
    std::lock_guard<std::mutex> Lock(C.M);
    C.Path = std::move(Path);
  }
  DroppedSpanCount.store(0, std::memory_order_relaxed);
  // Anchor the clock before the first span can observe it.
  nowNs();
  setCaptureBit(CaptureFull, true);
  return true;
}

bool Trace::stop() {
  setCaptureBit(CaptureFull, false);
  std::string Path;
  {
    Collector &C = collector();
    std::lock_guard<std::mutex> Lock(C.M);
    Path = C.Path;
  }
  if (Path.empty())
    return true;
  return writeTo(Path);
}

void Trace::clear() {
  // Callers disarm (or never armed) before clearing; an owner thread
  // racing a clear may republish its in-flight event, which the next
  // start() clears again.
  Collector &C = collector();
  std::lock_guard<std::mutex> Lock(C.M);
  for (const std::shared_ptr<ThreadBuffer> &Buffer : C.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->M);
    Buffer->Size.store(0, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Trace::snapshot() {
  std::vector<TraceEvent> All;
  Collector &C = collector();
  std::lock_guard<std::mutex> Lock(C.M);
  for (const std::shared_ptr<ThreadBuffer> &Buffer : C.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->M);
    uint32_t N = Buffer->Size.load(std::memory_order_acquire);
    All.insert(All.end(), Buffer->Events.begin(), Buffer->Events.begin() + N);
  }
  std::sort(All.begin(), All.end(), spanPrecedes);
  return All;
}

std::string Trace::toJson(const std::vector<TraceEvent> &Events) {
  std::string Out;
  Out.reserve(Events.size() * 96 + 256);
  Out += "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  appendEventsJson(Out, Events);
  Out += "\n]\n}\n";
  return Out;
}

void Trace::appendEventsJson(std::string &Out,
                             const std::vector<TraceEvent> &Events) {
  uint32_t MaxTid = 0;
  for (const TraceEvent &E : Events)
    MaxTid = std::max(MaxTid, E.Tid);
  bool First = true;
  for (uint32_t Tid = 0; Tid <= MaxTid; ++Tid) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(Tid) + ", \"args\": {\"name\": \"pdt-thread-" +
           std::to_string(Tid) + "\"}}";
  }

  // Worst case: the 49 literal chars plus ten-digit tid and two
  // 20-digit fixed-point times — keep comfortable headroom, snprintf
  // truncation here would drop the closing brace and corrupt the file.
  char Number[160];
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\": \"";
    appendEscaped(Out, E.Name);
    Out += "\", \"cat\": \"";
    appendEscaped(Out, E.Category ? E.Category : "pdt");
    // "ts"/"dur" are microseconds; three decimals keep the nanosecond
    // resolution exactly, so nesting survives the round-trip.
    std::snprintf(Number, sizeof(Number),
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %lld.%03lld, \"dur\": %lld.%03lld",
                  E.Tid, static_cast<long long>(E.StartNs / 1000),
                  static_cast<long long>(E.StartNs % 1000),
                  static_cast<long long>(E.DurationNs / 1000),
                  static_cast<long long>(E.DurationNs % 1000));
    Out += Number;
    if (E.Req != RequestContext::None) {
      // Resolved at dump time; a recycled token renders without the
      // tag rather than with a stale ID.
      std::string Id = RequestContext::idFor(E.Req);
      if (!Id.empty()) {
        Out += ", \"args\": {\"req\": \"";
        appendEscaped(Out, Id.c_str());
        Out += "\"}";
      }
    }
    Out += '}';
  }
}

bool Trace::writeTo(const std::string &Path) {
  std::ofstream File(Path);
  if (!File)
    return false;
  File << toJson(snapshot());
  File.flush();
  return File.good();
}

namespace {
/// Arms every PDT_* telemetry sink before main. It runs from this file
/// because every instrumented binary links it through pdt::Span.
[[maybe_unused]] const bool TelemetryArmed =
    (armTelemetryFromEnvironment(), true);
} // namespace
