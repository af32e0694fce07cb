//===- support/Telemetry.h - Shared telemetry substrate ---------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate the telemetry sinks share, so that each decision they
/// all make is made in one place:
///
///   * arming: armTelemetryFromEnvironment() reads every PDT_* knob of
///     the support sinks in one written order. It runs from a single
///     static initializer in Trace.cpp, the object every instrumented
///     binary links through pdt::Span; a sink's own object file is
///     linked only into binaries that reference it, so an initializer
///     there would arm nothing in the others;
///   * per-thread state: ThreadTelemetry is each thread's full-trace
///     and flight SpanRings and metric cells, kept in one registry that
///     hands an exited thread's state to the next thread that asks;
///   * files: JsonlStream is the crash-safe JSONL file behind the
///     event journal, the time-series sampler and the access log, and
///     writeFile() writes every whole-file dump;
///   * cadence: PeriodicThread is the background loop behind the
///     sampler and the watchdog.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_TELEMETRY_H
#define PDT_SUPPORT_TELEMETRY_H

#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

namespace pdt {

/// Arms the support sinks from the environment, in this order:
/// PDT_TRACE_MAX_SPANS, PDT_TRACE, PDT_PROFILE (which reuses the trace
/// armed before it or starts a pathless one), PDT_METRICS, PDT_EVENTS,
/// PDT_FLIGHT, PDT_WATCHDOG (whose verdicts go to the journal and the
/// flight rings armed before it), and PDT_SAMPLE_MS / PDT_SAMPLE (which
/// samples the metrics armed before it). Each armed sink registers its
/// exit-time and crash-time flush. Runs once, before main.
void armTelemetryFromEnvironment();

/// A trivially copyable T as relaxed atomic words, so one thread may
/// copy it while its one writer stores, without a data race; a copy
/// that may have raced a store can be torn, and its reader discards it.
template <typename T> struct AtomicWords {
  static constexpr size_t N = sizeof(T) / sizeof(uint64_t);
  static_assert(std::is_trivially_copyable_v<T> &&
                sizeof(T) == N * sizeof(uint64_t));
  std::atomic<uint64_t> W[N] = {};

  void store(const T &Value) {
    uint64_t Raw[N];
    std::memcpy(Raw, &Value, sizeof(T));
    for (size_t K = 0; K != N; ++K)
      W[K].store(Raw[K], std::memory_order_relaxed);
  }
  T load() const {
    uint64_t Raw[N];
    for (size_t K = 0; K != N; ++K)
      Raw[K] = W[K].load(std::memory_order_relaxed);
    T Value;
    std::memcpy(&Value, Raw, sizeof(T));
    return Value;
  }
};

/// One thread's spans, for either span consumer: TraceEvent slots and
/// a monotonic count of spans ever pushed, published with a release
/// store, so any thread may copy the ring while its one writer pushes.
/// The full trace grows its ring up to the span cap and then drops; the
/// flight recorder keeps a fixed ring that wraps onto its oldest slot.
class SpanRing {
public:
  size_t capacity() const { return Cap; }
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }

  /// Reallocates to \p Slots slots, keeping the spans pushed so far when
  /// \p Keep (for a ring that never wrapped), else emptying the ring.
  /// Only the owning thread resizes, holding ThreadTelemetry::lock().
  void resize(size_t Slots, bool Keep);

  /// Empties the ring and keeps its slots.
  void clear() { Count.store(0, std::memory_order_relaxed); }

  /// Stores \p E at index count() modulo capacity() (which must not be
  /// 0) and publishes count() + 1. Only the owning thread pushes.
  void push(const TraceEvent &E);

  /// Appends the window [count() - min(count(), capacity()), count()) to
  /// \p Out. For a ring that \p Wraps, every slot the writer may have
  /// reused during the copy is dropped, so no event is torn; past the
  /// first wrap that leaves capacity() - 1 events.
  void copyWindow(std::vector<TraceEvent> &Out, bool Wraps) const;

private:
  std::unique_ptr<AtomicWords<TraceEvent>[]> Slots;
  size_t Cap = 0;
  std::atomic<uint64_t> Count{0};
};

/// One thread's telemetry state, in one process-wide registry. A thread
/// takes a state on first use; each state is numbered once, and that
/// number is the tid of its spans in trace and flight dumps. At thread
/// exit the state goes back, contents intact, to the next thread that
/// asks, so span and counter memory follows the peak number of live
/// threads. States are never freed: all() keeps an exited thread's
/// spans and counts visible.
struct ThreadTelemetry {
  uint32_t Tid = 0;
  SpanRing TraceSpans;  ///< The full trace (support/Trace.h).
  SpanRing FlightSpans; ///< The flight ring (support/FlightRecorder.h).
  /// The FlightRecorder::start() that sized FlightSpans; a ring from an
  /// earlier start is remade before its next push and never read.
  uint64_t FlightStart = ~uint64_t(0);
  /// The thread's metric cells, word for word a MetricsSnapshot
  /// (support/Metrics.h); only the thread holding the state writes them.
  AtomicWords<MetricsSnapshot> MetricCells;

  /// The calling thread's state.
  static ThreadTelemetry &local() {
    ThreadTelemetry *State = Local;
    return State ? *State : adopt();
  }

  /// Every state ever handed out, in tid order; walk it under lock().
  static const std::vector<ThreadTelemetry *> &all();

  /// The registry lock. It also guards every ring resize and the sinks'
  /// configuration, so a walk over all() never reads across either.
  static std::mutex &lock();

private:
  static ThreadTelemetry &adopt();
  static inline thread_local ThreadTelemetry *Local = nullptr;
};

/// Creates or truncates \p Path and writes \p Contents: the one writer
/// of every whole-file dump (trace, flight, metrics, profile, run
/// report). False when the file cannot be opened or fully written.
bool writeFile(const std::string &Path, std::string_view Contents);

/// A JSONL output file. open() creates or truncates the file and
/// writes the caller's header line; writeLine() hands each line,
/// newline included, to the kernel in one write() before returning,
/// so a crash one instruction later still leaves every finished line
/// in the file (the guarantee fflush gives; neither is an fsync). It
/// takes no lock: each sink calls it under its own mutex.
class JsonlStream {
public:
  JsonlStream() = default;
  ~JsonlStream() { close(); }
  JsonlStream(const JsonlStream &) = delete;
  JsonlStream &operator=(const JsonlStream &) = delete;

  /// Closes any open file, then creates or truncates \p Path and writes
  /// \p Header as its first line. False when \p Path cannot be opened.
  bool open(const std::string &Path, std::string_view Header);
  void close();
  bool isOpen() const { return Fd >= 0; }

  /// Appends \p Line and a newline; a no-op while closed. A failed
  /// write (disk full, file gone) drops the line rather than stall the
  /// sink.
  void writeLine(std::string_view Line);

  /// The {"schema", "build", "start"} header line of the pdt-events-v1
  /// and pdt-access-v1 streams.
  static std::string header(const char *Schema);

private:
  int Fd = -1;
  std::string Buffer; ///< The line being written plus its newline.
};

/// One background thread calling a function on a fixed period until
/// stopped. A period of 0 starts no thread; tests and benches then
/// drive the work by hand.
class PeriodicThread {
public:
  PeriodicThread() = default;
  ~PeriodicThread() { stop(); }
  PeriodicThread(const PeriodicThread &) = delete;
  PeriodicThread &operator=(const PeriodicThread &) = delete;

  /// Stops a running thread, then starts one that calls \p Tick every
  /// \p PeriodMs milliseconds (none when \p PeriodMs is 0).
  void start(uint64_t PeriodMs, void (*Tick)());

  /// Wakes and joins the thread; a no-op when none runs.
  void stop();

private:
  std::mutex M;
  std::condition_variable Wake;
  bool Stopping = false; ///< Guarded by M.
  std::thread Thread;
};

} // namespace pdt

#endif // PDT_SUPPORT_TELEMETRY_H
