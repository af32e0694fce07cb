//===- support/Watchdog.h - Stall detection via progress beats --*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stall watchdog: long-running stages (DependenceGraph::build,
/// the fuzz campaign) register a Heartbeat and beat it
/// as they make progress; a monitor thread samples the beats and —
/// when a stage has been silent past a configurable multiple of its
/// quiet interval (derived from the stage's budget deadline when one
/// exists) — journals an error-severity stall verdict and triggers a
/// flight-recorder postmortem dump. A stage that resumes beating
/// clears its stall flag, so each stall episode fires exactly once.
///
/// Policy (see DESIGN.md "Continuous observability"):
///
///   * a Heartbeat constructed while the watchdog is disarmed is a
///     permanent no-op — beat() costs one pointer test;
///   * armed, beat() is one clock read and one relaxed store into the
///     stage's slot — safe from any thread, any frequency;
///   * stall threshold = QuietMs * StallFactor, where QuietMs is the
///     per-stage value (deadline-derived) or the watchdog default;
///   * verdicts are edge-triggered per episode and never abort the
///     process: the watchdog observes, the journal + dump explain.
///
/// Armed via PDT_WATCHDOG=on[,factor[,quiet_ms]] or Watchdog::start().
/// Tests inject a fake clock and poll manually (PollMs = 0 starts no
/// thread), making stall detection fully deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_WATCHDOG_H
#define PDT_SUPPORT_WATCHDOG_H

#include <cstdint>
#include <memory>
#include <string>

namespace pdt {

namespace detail {
struct HeartbeatSlot;
}

/// RAII progress probe for one stage. Register at stage entry, call
/// beat() whenever forward progress happens (per job, per pair chunk,
/// per kernel); destruction retires the slot.
class Heartbeat {
public:
  /// \p Stage must be a string literal; \p QuietMs overrides the
  /// watchdog's default quiet interval for this stage (0 keeps the
  /// default) — pass the stage's deadline when it has one.
  explicit Heartbeat(const char *Stage, uint64_t QuietMs = 0);
  ~Heartbeat();
  Heartbeat(const Heartbeat &) = delete;
  Heartbeat &operator=(const Heartbeat &) = delete;

  /// Records forward progress. Thread-safe (relaxed store).
  void beat();

private:
  std::shared_ptr<detail::HeartbeatSlot> Slot;
};

class Watchdog {
public:
  static constexpr double DefaultStallFactor = 4.0;
  static constexpr uint64_t DefaultQuietMs = 1000;
  static constexpr uint64_t DefaultPollMs = 100;

  static bool enabled();

  /// Arms the watchdog. \p PollMs > 0 spawns the monitor thread;
  /// \p PollMs == 0 arms without a thread (tests and benches poll via
  /// pollOnceForTest). Ensures a journal exists (starts an in-memory
  /// EventLog when none is configured) so verdicts are never lost.
  static bool start(double StallFactor = DefaultStallFactor,
                    uint64_t QuietMs = DefaultQuietMs,
                    uint64_t PollMs = DefaultPollMs);

  /// Disarms and joins the monitor thread.
  static void stop();

  /// Stall verdicts fired since start().
  static uint64_t stallCount();

  /// Runs one monitor sweep; returns how many new stall verdicts it
  /// fired. The monitor thread calls the same sweep.
  static unsigned pollOnceForTest();

  /// Injects a fake millisecond clock (nullptr restores the real one)
  /// for deterministic stall tests. Affects beats and sweeps alike.
  static void setClockForTest(uint64_t (*NowMs)());

  /// Parses a PDT_WATCHDOG spec: "on", "off", "on,<factor>",
  /// "on,<factor>,<quiet_ms>". Returns false on malformed input. Used
  /// by support/Telemetry.h; exposed for EnvTest.
  static bool parseSpec(const std::string &Spec, bool &On, double &Factor,
                        uint64_t &QuietMs);
};

} // namespace pdt

#endif // PDT_SUPPORT_WATCHDOG_H
