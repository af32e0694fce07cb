//===- support/FlightRecorder.h - Bounded last-N span rings -----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The always-on flight recorder: one fixed-capacity ring of
/// TraceEvents per thread, continuously overwriting the oldest spans —
/// the black-box counterpart to PDT_TRACE's keep-everything trace.
/// Armed via PDT_FLIGHT=on[,bytes[,path]] or FlightRecorder::start();
/// spans flow in through the same pdt::Span gate as full tracing
/// (Trace::CaptureFlight).
///
/// The ring is the FlightSpans SpanRing of the thread's ThreadTelemetry
/// state (support/Telemetry.h), the same type the full trace uses.
/// Ring invariants (checked by FlightRecorderTest under 1/4/8-thread
/// contention):
///
///   * single writer per ring: the owning thread stores the slot as
///     relaxed atomics, then publishes Count with a release store — no
///     RMW, and no lock but the one taken when a thread's first span
///     after a start() remakes its ring;
///   * Count is monotonic; Overwritten == max(0, Count - Capacity);
///   * snapshot() is lock-free against pushes: it copies the window
///     [Count - min(Count, Cap), Count) under an acquire load, then
///     re-reads Count and discards any slot a writer could have
///     reused during the copy, so a returned event is never torn;
///   * memory in use is Threads * Capacity * sizeof(TraceEvent), where
///     Threads counts the rings written since the last start()
///     (bench_x9_monitor asserts the configured bound). An exited
///     thread's ring passes to the next thread that asks, so Threads
///     follows the peak number of live threads, not every thread the
///     process ever started.
///
/// Dumps are Chrome-trace JSON (same event format as PDT_TRACE, plus a
/// "flightRecorder" header with stats and build info), written on
/// demand (dump()), on crash (CrashSafety hook), or by the watchdog's
/// postmortem() when a stage stalls.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_FLIGHTRECORDER_H
#define PDT_SUPPORT_FLIGHTRECORDER_H

#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pdt {

class FlightRecorder {
public:
  /// Default per-thread ring size (bytes): a few thousand spans per
  /// thread, enough to reconstruct the last build around a stall.
  static constexpr size_t DefaultBytesPerThread = 256 * 1024;

  /// True while rings are recording.
  static bool enabled();

  /// Arms the recorder: every thread that records a span from now on
  /// gets a ring of \p BytesPerThread bytes. \p DumpPath (empty keeps
  /// the previous / default "pdt-flight.json") is where postmortem
  /// dumps land. Discards previously recorded events: every ring is
  /// remade at the new size before its thread's next span.
  static bool start(size_t BytesPerThread = DefaultBytesPerThread,
                    std::string DumpPath = "");

  /// Disarms; recorded events stay readable until the next start().
  static void stop();

  /// Appends one finished span to the calling thread's ring. Called by
  /// Trace::record when the CaptureFlight bit is armed.
  static void record(const TraceEvent &E);

  /// The surviving window of every ring, merged and sorted by
  /// spanPrecedes like Trace::snapshot().
  static std::vector<TraceEvent> snapshot();

  struct Stats {
    uint64_t Recorded = 0;    ///< Spans ever pushed (monotonic).
    uint64_t Overwritten = 0; ///< Spans lost to ring wraparound.
    uint64_t BytesInUse = 0;  ///< Slots allocated across all rings.
    uint32_t Threads = 0;     ///< Rings written since start().
    uint32_t SlotsPerThread = 0;
  };
  static Stats stats();

  /// Renders the current window as a Chrome-trace JSON document with a
  /// "flightRecorder" stats header. \p Reason tags why the dump was
  /// taken ("on-demand", "crash", "watchdog-stall", ...).
  static std::string toJson(const char *Reason = "on-demand");

  /// Writes toJson(\p Reason) to \p Path; false on I/O failure.
  static bool dump(const std::string &Path, const char *Reason = "on-demand");

  /// The postmortem path: dumps to the configured dump path and emits
  /// an error-severity journal event carrying \p Reason. Used by the
  /// crash hook and the watchdog.
  static bool postmortem(const char *Reason);

  /// Where postmortem dumps go.
  static std::string dumpPath();

  /// Parses a PDT_FLIGHT spec: "on", "off", "on,<bytes>[k|m]",
  /// "on,<bytes>,<path>". Returns false (leaving outputs untouched)
  /// on malformed input. Used by support/Telemetry.h; exposed for
  /// EnvTest.
  static bool parseSpec(const std::string &Spec, bool &On,
                        size_t &BytesPerThread, std::string &DumpPath);
};

} // namespace pdt

#endif // PDT_SUPPORT_FLIGHTRECORDER_H
