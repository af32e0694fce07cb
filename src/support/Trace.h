//===- support/Trace.h - Scoped spans as Chrome trace events ----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-aware scoped tracing for the analysis pipeline. Every
/// instrumented layer (DependenceGraph::build, the lowering cache, the
/// tester, the Delta test, Fourier-Motzkin, the thread-pool workers)
/// opens a pdt::Span over its work; when tracing is armed the spans
/// are buffered per thread and dumped as Chrome trace-event JSON
/// ("ph":"X" complete events), which chrome://tracing and Perfetto
/// load directly as a flame chart per thread.
///
/// Overhead policy (see DESIGN.md "Observability architecture"):
///
///   * disarmed (the default): one relaxed atomic load and a
///     predictable not-taken branch per span;
///   * armed: two steady_clock reads and one uncontended thread-local
///     buffer append per span (< 5% on the x3 workload, enforced by
///     bench_x5_observability).
///
/// Arming is programmatic (Trace::start / Trace::stop, used by the
/// tests and benches) or via the environment: PDT_TRACE=out.json
/// writes the trace at process exit (support/Telemetry.h arms every
/// PDT_* sink). Span names must be string literals (they are stored,
/// not copied).
///
/// Spans have two consumers behind one capture gate: the full
/// per-thread buffers here (every span kept, bounded only by the
/// PDT_TRACE_MAX_SPANS per-thread cap, drops counted) and the
/// flight recorder's fixed-size rings (support/FlightRecorder.h,
/// last-N spans at bounded memory). Either, both, or neither may be
/// armed; the Span fast path stays a single relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_TRACE_H
#define PDT_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pdt {

/// One finished span, as recorded in a thread buffer and exposed to
/// tests through Trace::snapshot(). Times are nanoseconds since the
/// trace clock anchor. Kind is a small attribution tag (the core layer
/// stores its TestKind enumerator there, see support/Profile.h);
/// NoTag for structural spans that belong to no particular test. Req
/// is the RequestContext token of the serving request the span ran
/// under (support/RequestContext.h; 0 = none), resolved to the ID
/// string only at dump time — the JSON emits it as an "args.req" tag.
struct TraceEvent {
  static constexpr int16_t NoTag = -1;

  const char *Name = nullptr;
  const char *Category = nullptr;
  uint32_t Tid = 0;
  int16_t Kind = NoTag;
  uint32_t Req = 0;
  int64_t StartNs = 0;
  int64_t DurationNs = 0;
};

/// The order of Trace::snapshot and FlightRecorder::snapshot, which
/// Profile::build walks: by thread, then start ascending, then
/// duration descending. Per thread a parent starts no later than its
/// children and ends no earlier, so every parent precedes its
/// children.
inline bool spanPrecedes(const TraceEvent &A, const TraceEvent &B) {
  if (A.Tid != B.Tid)
    return A.Tid < B.Tid;
  if (A.StartNs != B.StartNs)
    return A.StartNs < B.StartNs;
  return A.DurationNs > B.DurationNs;
}

/// Global trace control. All members are static; the collector behind
/// them owns one buffer per thread that ever finished a span.
class Trace {
public:
  /// Capture-gate bits: which span consumers are armed.
  enum CaptureBit : unsigned {
    CaptureFull = 1u << 0,   ///< The full per-thread buffers (PDT_TRACE).
    CaptureFlight = 1u << 1, ///< The flight-recorder rings (PDT_FLIGHT).
  };

  /// True when the full trace buffers are recording.
  static bool enabled() {
    return (CaptureFlags.load(std::memory_order_relaxed) & CaptureFull) != 0;
  }

  /// True when any span consumer (full trace or flight recorder) is
  /// armed — the Span constructor's single gate.
  static bool capturing() {
    return CaptureFlags.load(std::memory_order_relaxed) != 0;
  }

  /// Arms or disarms one capture consumer. Used by the flight
  /// recorder; start()/stop() manage the CaptureFull bit.
  static void setCaptureBit(CaptureBit Bit, bool On);

  /// Starts recording; \p Path (may be empty) is where stop() and the
  /// process-exit hook write the JSON. Clears previously buffered
  /// events.
  static bool start(std::string Path);

  /// Stops recording and writes the JSON to the path given to start()
  /// (skipped when that path is empty). Returns false when the file
  /// could not be written.
  static bool stop();

  /// Drops every buffered event without writing.
  static void clear();

  /// All buffered events, merged across threads and sorted by
  /// spanPrecedes. Exposed for the nesting and layer-coverage tests.
  static std::vector<TraceEvent> snapshot();

  /// Renders \p Events as a Chrome trace-event JSON document.
  static std::string toJson(const std::vector<TraceEvent> &Events);

  /// Writes snapshot() to \p Path; false on I/O failure.
  static bool writeTo(const std::string &Path);

  /// Nanoseconds since the process-wide trace clock anchor.
  static int64_t nowNs();

  /// Per-thread span cap for the *full* buffers (the flight rings are
  /// bounded by construction). A thread that reaches the cap drops
  /// further spans and counts them; 0 restores the built-in default.
  /// Env-tunable via PDT_TRACE_MAX_SPANS.
  static void setMaxSpansPerThread(uint32_t Cap);
  static uint32_t maxSpansPerThread();

  /// Spans dropped by the per-thread cap since the last start().
  static uint64_t droppedSpans();

  /// Appends \p Events to \p Out as a comma-separated run of Chrome
  /// "ph":"X" complete-event objects plus per-thread thread_name
  /// metadata (no surrounding array). Shared by toJson and the flight
  /// recorder's dump so the two artifacts stay format-identical.
  static void appendEventsJson(std::string &Out,
                               const std::vector<TraceEvent> &Events);

private:
  friend class Span;
  static void record(const char *Name, const char *Category, int16_t Kind,
                     int64_t StartNs, int64_t EndNs);
  static std::atomic<unsigned> CaptureFlags;
};

/// RAII scope: records one complete event from construction to
/// destruction when tracing is armed. \p Name and \p Category must be
/// string literals. \p KindTag, when not NoTag, attributes the span to
/// a dependence test for the profiler (core passes its TestKind
/// enumerator cast to int; support deliberately stays ignorant of the
/// enum itself).
class Span {
public:
  explicit Span(const char *Name, const char *Category = "pdt",
                int KindTag = TraceEvent::NoTag) {
    if (Trace::capturing()) {
      this->Name = Name;
      this->Category = Category;
      Kind = static_cast<int16_t>(KindTag);
      StartNs = Trace::nowNs();
    }
  }
  ~Span() {
    if (Name)
      Trace::record(Name, Category, Kind, StartNs, Trace::nowNs());
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name = nullptr;
  const char *Category = nullptr;
  int16_t Kind = TraceEvent::NoTag;
  int64_t StartNs = 0;
};

} // namespace pdt

#endif // PDT_SUPPORT_TRACE_H
