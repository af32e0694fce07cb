//===- support/CrashSafety.h - Flush telemetry on abnormal exit -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace, metrics, and run-report dumps (PDT_TRACE, PDT_METRICS,
/// PDT_REPORT, PDT_PROFILE) are exactly the artifacts one needs when a
/// run dies — and an aborting process skips atexit, so without extra
/// care they would be lost precisely then. This registry gives every
/// telemetry sink one flush hook and arranges for all of them to run
/// on the abnormal-exit paths:
///
///   * std::terminate (uncaught exception, missing handler), via a
///     chained terminate handler installed on first registration;
///   * SIGABRT (assert, abort, library fatal), via a best-effort
///     signal handler that flushes, restores the default disposition,
///     and re-raises so the exit status is preserved.
///
/// Normal exits still flush through the sinks' own atexit hooks; the
/// registry runs each hook at most once per process, so a terminate
/// that turns into an abort does not double-write.
///
/// Hooks must be safe to call from a crashing context: no allocation
/// guarantees are made for them (ours render in memory, which is
/// technically not async-signal-safe, and write with writeFile() from
/// support/Telemetry.h — the usual, deliberate trade for crash
/// diagnostics).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_CRASHSAFETY_H
#define PDT_SUPPORT_CRASHSAFETY_H

namespace pdt {

/// Registers \p Hook to run on abnormal process exit. The first
/// registration installs the terminate and SIGABRT handlers. \p Name
/// identifies the sink in the one-line stderr notice printed when the
/// crash path actually flushes.
void registerCrashFlush(const char *Name, void (*Hook)());

/// Runs every registered hook that has not run yet (idempotent).
/// Invoked by the handlers; exposed so tests can exercise the flush
/// without dying.
void runCrashFlushHooks();

} // namespace pdt

#endif // PDT_SUPPORT_CRASHSAFETY_H
