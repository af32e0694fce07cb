//===- support/Telemetry.h - Arming, JSONL streams, cadence -----*- C++ -*-===//
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
///   * streams: JsonlStream is the crash-safe JSONL file behind the
///     event journal, the time-series sampler and the access log;
///   * cadence: PeriodicThread is the background loop behind the
///     sampler and the watchdog.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_TELEMETRY_H
#define PDT_SUPPORT_TELEMETRY_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace pdt {

/// Arms the support sinks from the environment, in this order:
/// PDT_TRACE_MAX_SPANS, PDT_TRACE, PDT_PROFILE (which reuses the trace
/// armed before it or starts a pathless one), PDT_METRICS, PDT_EVENTS,
/// PDT_FLIGHT, PDT_WATCHDOG (whose verdicts go to the journal and the
/// flight rings armed before it), and PDT_SAMPLE_MS / PDT_SAMPLE (which
/// samples the metrics armed before it). Each armed sink registers its
/// exit-time and crash-time flush. Runs once, before main.
void armTelemetryFromEnvironment();

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
