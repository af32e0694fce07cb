//===- tests/support/WatchdogTest.cpp - Deterministic stall tests ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// Stall detection with an injected clock and manual sweeps (PollMs=0):
// every threshold crossing, edge-trigger, and re-arm transition is
// exercised at exact millisecond values, with no real time and no
// monitor thread anywhere — the determinism contract of
// Watchdog::setClockForTest / pollOnceForTest.
//
//===----------------------------------------------------------------------===//

#include "support/Watchdog.h"

#include "support/EventLog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

using namespace pdt;

namespace {

std::atomic<uint64_t> FakeMs{0};
uint64_t fakeClock() { return FakeMs.load(std::memory_order_relaxed); }

class WatchdogTest : public testing::Test {
protected:
  void SetUp() override {
    FakeMs.store(0);
    Watchdog::setClockForTest(fakeClock);
  }
  void TearDown() override {
    Watchdog::stop();
    Watchdog::setClockForTest(nullptr);
    EventLog::stop();
  }
};

TEST_F(WatchdogTest, FiresExactlyAtTheThresholdEdge) {
  // quiet 100ms * factor 2 => threshold 200ms of silence.
  Watchdog::start(/*StallFactor=*/2.0, /*QuietMs=*/100, /*PollMs=*/0);
  Heartbeat HB("test.stage");
  FakeMs.store(200);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 0u) << "silent == threshold: quiet";
  FakeMs.store(201);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u) << "silent > threshold: stall";
  EXPECT_EQ(Watchdog::stallCount(), 1u);
}

TEST_F(WatchdogTest, VerdictIsEdgeTriggeredPerEpisode) {
  Watchdog::start(2.0, 100, 0);
  Heartbeat HB("test.stage");
  FakeMs.store(500);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u);
  FakeMs.store(5000);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 0u)
      << "one episode must yield one verdict, however long it lasts";
  EXPECT_EQ(Watchdog::stallCount(), 1u);
}

TEST_F(WatchdogTest, BeatAfterStallRearmsTheEpisode) {
  Watchdog::start(2.0, 100, 0);
  Heartbeat HB("test.stage");
  FakeMs.store(500);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u);
  HB.beat(); // Recovered at t=500.
  FakeMs.store(600);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 0u) << "100ms silent: healthy again";
  FakeMs.store(1000);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u) << "second episode, new verdict";
  EXPECT_EQ(Watchdog::stallCount(), 2u);
}

TEST_F(WatchdogTest, PerStageQuietOverridesTheDefault) {
  // Default quiet 1000ms; the probed stage declares 10ms (a tight
  // deadline), factor 4 => 40ms threshold.
  Watchdog::start(4.0, 1000, 0);
  Heartbeat Tight("test.tight", /*QuietMs=*/10);
  Heartbeat Lax("test.lax");
  FakeMs.store(100);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u) << "only the tight stage";
  FakeMs.store(5000);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 1u) << "now the lax stage too";
  EXPECT_EQ(Watchdog::stallCount(), 2u);
}

TEST_F(WatchdogTest, VerdictJournalsStageAndSilence) {
  EventLog::start("");
  Watchdog::start(2.0, 100, 0);
  Heartbeat HB("test.journaled-stage");
  FakeMs.store(300);
  ASSERT_EQ(Watchdog::pollOnceForTest(), 1u);
  bool Found = false;
  for (const std::string &Line : EventLog::recentLines())
    Found |= Line.find("watchdog-stall") != std::string::npos &&
             Line.find("test.journaled-stage") != std::string::npos &&
             Line.find("\"silent_ms\": 300") != std::string::npos;
  EXPECT_TRUE(Found) << "stall verdict must journal stage and silence";
}

TEST_F(WatchdogTest, RetiredHeartbeatsAreNeverFlagged) {
  Watchdog::start(2.0, 100, 0);
  { Heartbeat HB("test.retired"); }
  FakeMs.store(10000);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 0u)
      << "a destroyed heartbeat is not a stalled stage";
}

TEST_F(WatchdogTest, DisarmedHeartbeatIsAPermanentNoop) {
  Watchdog::start(2.0, 100, 0); // Resets the stall count...
  Watchdog::stop();             // ...then disarm before the probe exists.
  Heartbeat HB("test.disarmed");
  HB.beat();
  FakeMs.store(100000);
  EXPECT_EQ(Watchdog::pollOnceForTest(), 0u);
  EXPECT_EQ(Watchdog::stallCount(), 0u);
}

TEST_F(WatchdogTest, StartEnsuresAJournalExists) {
  EventLog::stop();
  Watchdog::start(2.0, 100, 0);
  EXPECT_TRUE(EventLog::enabled())
      << "a stall verdict with no journal would be lost";
}

} // namespace
