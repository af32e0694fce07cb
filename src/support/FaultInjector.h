//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for exercising the degradation paths.
/// The arithmetic kernels of the analysis (LinearExpr term updates,
/// Rational operations, the Diophantine solver, Fourier-Motzkin
/// combination steps) each call FaultInjector::checkpoint() once per
/// operation. When the injector is armed, checkpoints are numbered
/// 1, 2, 3, ... in execution order and the checkpoint whose number
/// equals the armed target raises the armed FailureKind, which the
/// containment layers must absorb into a conservative Degraded result.
/// Sweeping the target over every site therefore proves that no single
/// arithmetic failure anywhere in the pipeline can crash the process
/// or flip a verdict to an unsound "independent".
///
/// Arming is programmatic (arm / armFromSpec) or via the environment:
///
///   PDT_FAULT_INJECT=overflow@17    # kind '@' 1-based site number
///
/// with kinds overflow, budget, symbolic, internal, malformed. A
/// target of 0 counts sites without tripping (count mode), which a
/// sweep harness uses to discover the number of sites first. While the
/// injector is disarmed, checkpoint() is a single inline relaxed atomic
/// load (after the first call has read the environment).
///
/// The persistent result store (support/Store.h) adds a parallel
/// family of *I/O* fault kinds with the same grammar:
///
///   PDT_FAULT_INJECT=io_write@3     # 3rd write site fails
///
/// with kinds io_open, io_write, io_fsync, io_torn_tail. I/O sites
/// are numbered per kind (arming io_write counts only write sites),
/// and tripping is reported by ioCheckpoint() returning true — the
/// store then simulates the failure (EIO, a torn half-written record,
/// ...) instead of an exception, because store failures must degrade
/// to the in-memory path, never unwind into the analysis.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_FAULTINJECTOR_H
#define PDT_SUPPORT_FAULTINJECTOR_H

#include "support/Failure.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace pdt {

/// The injectable I/O failure sites of the persistent store.
enum class IoFaultKind {
  Open,     ///< Opening / creating a file or directory fails.
  Write,    ///< A write fails wholesale (simulated EIO / ENOSPC).
  Fsync,    ///< An fsync fails after the data may have been written.
  TornTail, ///< A write stops halfway through the record (crash image).
};

/// Number of IoFaultKind enumerators.
constexpr unsigned NumIoFaultKinds = 4;

/// Display name ("io_open", "io_write", ...), matching the
/// PDT_FAULT_INJECT grammar.
const char *ioFaultKindName(IoFaultKind K);

class FaultInjector {
public:
  /// Arms the injector: the \p TargetSite-th checkpoint (1-based)
  /// after this call raises \p K. TargetSite 0 counts without
  /// tripping. Resets the site counter.
  static void arm(FailureKind K, uint64_t TargetSite);

  /// Parses a "kind@site" spec ("overflow@17", "io_write@3"); returns
  /// false (and leaves the injector untouched) on a malformed spec.
  /// io_* kinds arm the I/O injector, every other kind the arithmetic
  /// one.
  static bool armFromSpec(const std::string &Spec);

  /// Arms the I/O injector: the \p TargetSite-th ioCheckpoint (1-based)
  /// of kind \p K after this call reports the fault. TargetSite 0
  /// counts without tripping. Resets the I/O site counter.
  static void armIo(IoFaultKind K, uint64_t TargetSite);

  /// Disarms both injectors and resets the counters. checkpoint() and
  /// ioCheckpoint() become no-ops.
  static void disarm();

  /// Number of checkpoints executed since the last arm().
  static uint64_t siteCount();

  /// Number of matching-kind ioCheckpoints executed since armIo().
  static uint64_t ioSiteCount();

  /// True when the arithmetic injector is armed (including count
  /// mode).
  static bool armed();

  /// True when the I/O injector is armed (including count mode).
  static bool ioArmed();

  /// True when either injector is armed. The determinism gates (serial
  /// graph build, batching rollback) key on this: any armed injector
  /// needs the stable serial execution order so site numbers mean the
  /// same thing on every run.
  static bool anyArmed() { return armed() || ioArmed(); }

  /// Reads PDT_FAULT_INJECT once per process and arms accordingly.
  /// Called lazily by the first checkpoint; exposed for tests.
  static void initFromEnvironment();

  /// One instrumented arithmetic site. Raises the armed failure when
  /// this is the target site. Idle, it is one inline relaxed load.
  static void checkpoint() {
    if (SlowPath.load(std::memory_order_relaxed))
      checkpointSlow();
  }

  /// One instrumented I/O site of kind \p K. Returns true when the
  /// I/O injector is armed for \p K and this is the target site — the
  /// caller must then behave as if the operation failed. Sites of
  /// other kinds neither count nor trip.
  static bool ioCheckpoint(IoFaultKind K);

private:
  /// True until PDT_FAULT_INJECT has been read, and while armed.
  static std::atomic<bool> SlowPath;
  static void checkpointSlow();
  static void readEnvironmentOnce();
};

} // namespace pdt

#endif // PDT_SUPPORT_FAULTINJECTOR_H
