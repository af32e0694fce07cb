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

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <vector>

using namespace pdt;

namespace {

struct WatchdogState {
  std::mutex M;
  std::vector<Heartbeat *> Live; ///< The armed heartbeats.
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

} // namespace

Heartbeat::Heartbeat(const char *Stage, uint64_t QuietMs)
    : Stage(Stage), QuietMs(QuietMs) {
  if (!Watchdog::enabled())
    return;
  Armed = true;
  LastProgressMs = nowMs();
  WatchdogState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Live.push_back(this);
}

Heartbeat::~Heartbeat() {
  if (!Armed)
    return;
  WatchdogState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Live.erase(std::remove(S.Live.begin(), S.Live.end(), this), S.Live.end());
}

bool Watchdog::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool Watchdog::start(double StallFactor, uint64_t QuietMs, uint64_t PollMs) {
  stop();
  WatchdogState &S = state();
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Live.clear();
    S.StallFactor = StallFactor >= 1.0 ? StallFactor : 1.0;
    S.QuietMs = QuietMs ? QuietMs : DefaultQuietMs;
  }
  S.Stalls.store(0, std::memory_order_relaxed);
  // A stall verdict with no journal is a tree falling in an empty
  // forest: keep at least the in-memory ring.
  if (!EventLog::enabled())
    EventLog::start("");
  S.Enabled.store(true, std::memory_order_relaxed);
  S.Monitor.start(PollMs, [] { pollOnceForTest(); });
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

/// One sweep over the armed heartbeats. A stage whose beat count moved
/// since the last sweep made progress now; one whose count stood still
/// has been silent since the last sweep that saw it move.
unsigned Watchdog::pollOnceForTest() {
  WatchdogState &S = state();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return 0;
  uint64_t Now = nowMs();
  struct Verdict {
    const char *Stage;
    uint64_t SilentMs, QuietMs;
  };
  std::vector<Verdict> Stalled;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    for (Heartbeat *HB : S.Live) {
      uint64_t Beats = HB->Beats.load(std::memory_order_relaxed);
      if (Beats != HB->SeenBeats) {
        // A beat after a stall verdict re-arms the episode: the stage
        // recovered, so a later stall is new information.
        HB->SeenBeats = Beats;
        HB->LastProgressMs = Now;
        HB->Stalled = false;
        continue;
      }
      uint64_t Quiet = HB->QuietMs ? HB->QuietMs : S.QuietMs;
      uint64_t Threshold =
          static_cast<uint64_t>(static_cast<double>(Quiet) * S.StallFactor);
      uint64_t Silent = Now > HB->LastProgressMs ? Now - HB->LastProgressMs : 0;
      if (Silent > Threshold && !HB->Stalled) {
        HB->Stalled = true;
        Stalled.push_back({HB->Stage, Silent, Quiet});
      }
    }
  }
  // Verdicts outside the lock: the journal and the dump may do I/O.
  for (const Verdict &V : Stalled) {
    S.Stalls.fetch_add(1, std::memory_order_relaxed);
    Metrics::count(Metric::WatchdogStalls);
    EventLog::event(EventSeverity::Error, "monitor", "watchdog-stall",
                    V.Stage,
                    {{"silent_ms", V.SilentMs}, {"quiet_ms", V.QuietMs}});
    if (FlightRecorder::enabled())
      FlightRecorder::postmortem("watchdog-stall");
  }
  return static_cast<unsigned>(Stalled.size());
}

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
