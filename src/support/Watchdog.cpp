//===- support/Watchdog.cpp - Stall detection via progress beats ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Watchdog.h"

#include "support/Env.h"
#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace pdt;

namespace pdt::detail {

/// One stage's progress slot. The stage's threads store beats; the
/// monitor reads them. Edge-triggered: Stalled latches until the next
/// beat.
struct HeartbeatSlot {
  const char *Stage = nullptr;
  std::atomic<uint64_t> LastBeatMs{0};
  uint64_t QuietMs = 0; ///< 0: use the watchdog default.
  std::atomic<bool> Stalled{false};
  std::atomic<bool> Live{true};
};

} // namespace pdt::detail

namespace {

using pdt::detail::HeartbeatSlot;

struct WatchdogState {
  std::mutex M;
  std::vector<std::shared_ptr<HeartbeatSlot>> Slots;
  std::atomic<bool> Enabled{false};
  double StallFactor = Watchdog::DefaultStallFactor;
  uint64_t QuietMs = Watchdog::DefaultQuietMs;
  std::atomic<uint64_t> Stalls{0};
  std::atomic<uint64_t (*)()> ClockMs{nullptr};
  PeriodicThread Monitor;
};

WatchdogState &state() {
  // Immortal, like every telemetry singleton in support/.
  static WatchdogState *S = new WatchdogState;
  return *S;
}

uint64_t nowMs() {
  if (uint64_t (*Clock)() = state().ClockMs.load(std::memory_order_relaxed))
    return Clock();
  return static_cast<uint64_t>(Trace::nowNs() / 1000000);
}

/// One monitor sweep over the registered slots; prunes retired ones.
unsigned pollOnce() {
  WatchdogState &S = state();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return 0;
  uint64_t Now = nowMs();
  unsigned NewStalls = 0;
  std::vector<std::shared_ptr<HeartbeatSlot>> Stalled;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    for (size_t I = 0; I != S.Slots.size();) {
      HeartbeatSlot &Slot = *S.Slots[I];
      if (!Slot.Live.load(std::memory_order_relaxed)) {
        S.Slots.erase(S.Slots.begin() + static_cast<ptrdiff_t>(I));
        continue;
      }
      uint64_t Quiet = Slot.QuietMs ? Slot.QuietMs : S.QuietMs;
      uint64_t Threshold =
          static_cast<uint64_t>(static_cast<double>(Quiet) * S.StallFactor);
      uint64_t Last = Slot.LastBeatMs.load(std::memory_order_relaxed);
      if (Now > Last && Now - Last > Threshold &&
          !Slot.Stalled.exchange(true, std::memory_order_relaxed)) {
        ++NewStalls;
        Stalled.push_back(S.Slots[I]);
      }
      ++I;
    }
  }
  // Verdicts outside the registry lock: the journal and the dump may
  // do I/O.
  for (const std::shared_ptr<HeartbeatSlot> &Slot : Stalled) {
    S.Stalls.fetch_add(1, std::memory_order_relaxed);
    Metrics::count(Metric::WatchdogStalls);
    uint64_t Quiet = Slot->QuietMs ? Slot->QuietMs : S.QuietMs;
    uint64_t Last = Slot->LastBeatMs.load(std::memory_order_relaxed);
    EventLog::event(EventSeverity::Error, "monitor", "watchdog-stall",
                    Slot->Stage,
                    {{"silent_ms", Now > Last ? Now - Last : 0},
                     {"quiet_ms", Quiet}});
    if (FlightRecorder::enabled())
      FlightRecorder::postmortem("watchdog-stall");
  }
  return NewStalls;
}

} // namespace

Heartbeat::Heartbeat(const char *Stage, uint64_t QuietMs) {
  if (!Watchdog::enabled())
    return;
  WatchdogState &S = state();
  auto NewSlot = std::make_shared<HeartbeatSlot>();
  NewSlot->Stage = Stage;
  NewSlot->QuietMs = QuietMs;
  NewSlot->LastBeatMs.store(nowMs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Slots.push_back(NewSlot);
  }
  Slot = std::move(NewSlot);
}

Heartbeat::~Heartbeat() {
  if (Slot)
    Slot->Live.store(false, std::memory_order_relaxed);
}

void Heartbeat::beat() {
  if (!Slot)
    return;
  Slot->LastBeatMs.store(nowMs(), std::memory_order_relaxed);
  // A beat after a stall verdict re-arms the episode: the stage
  // recovered, so a later stall is new information.
  if (Slot->Stalled.load(std::memory_order_relaxed))
    Slot->Stalled.store(false, std::memory_order_relaxed);
}

bool Watchdog::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool Watchdog::start(double StallFactor, uint64_t QuietMs, uint64_t PollMs) {
  stop();
  WatchdogState &S = state();
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Slots.clear();
    S.StallFactor = StallFactor >= 1.0 ? StallFactor : 1.0;
    S.QuietMs = QuietMs ? QuietMs : DefaultQuietMs;
  }
  S.Stalls.store(0, std::memory_order_relaxed);
  // A stall verdict with no journal is a tree falling in an empty
  // forest: keep at least the in-memory ring.
  if (!EventLog::enabled())
    EventLog::start("");
  S.Enabled.store(true, std::memory_order_relaxed);
  S.Monitor.start(PollMs, [] { pollOnce(); });
  return true;
}

void Watchdog::stop() {
  WatchdogState &S = state();
  S.Enabled.store(false, std::memory_order_relaxed);
  S.Monitor.stop();
}

uint64_t Watchdog::stallCount() {
  return state().Stalls.load(std::memory_order_relaxed);
}

unsigned Watchdog::pollOnceForTest() { return pollOnce(); }

void Watchdog::setClockForTest(uint64_t (*NowMs)()) {
  state().ClockMs.store(NowMs, std::memory_order_relaxed);
}

bool Watchdog::parseSpec(const std::string &Spec, bool &On, double &Factor,
                         uint64_t &QuietMs) {
  bool IsOn = false;
  std::vector<std::string> Args;
  if (!splitSwitchSpec(Spec, IsOn, Args))
    return false;
  double F = 0;
  if (!Args.empty()) {
    char *End = nullptr;
    F = std::strtod(Args[0].c_str(), &End);
    if (Args[0].empty() || *End || F < 1.0 || F > 1000.0)
      return false;
  }
  uint64_t Q = 0;
  if (Args.size() == 2) {
    if (Args[1].empty() || Args[1].size() > 9)
      return false;
    for (char C : Args[1]) {
      if (!std::isdigit(static_cast<unsigned char>(C)))
        return false;
      Q = Q * 10 + static_cast<uint64_t>(C - '0');
    }
    if (Q == 0)
      return false;
  }
  On = IsOn;
  if (F > 0)
    Factor = F;
  if (Q > 0)
    QuietMs = Q;
  return true;
}
