//===- tests/support/FlightRecorderTest.cpp - Flight-ring tests -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flight recorder's ring invariants under contention: bounded
// memory, monotonic counts, overwrite accounting, and — the one that
// justifies the lock-free design — snapshot() never returning a torn
// event while writers keep overwriting. Also the Chrome-trace dump
// format and the Span capture gate that feeds the rings without full
// tracing armed.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

using namespace pdt;

namespace {

/// Records \p N events on the calling thread whose payload is
/// self-checking: DurationNs == 2 * StartNs + 1. A torn slot (half old
/// write, half new) breaks the relation.
void recordSelfChecking(uint64_t N, uint64_t Base = 0) {
  for (uint64_t I = 0; I != N; ++I) {
    TraceEvent E;
    E.Name = "flight.selfcheck";
    E.Category = "test";
    E.StartNs = static_cast<int64_t>(Base + I);
    E.DurationNs = 2 * static_cast<int64_t>(Base + I) + 1;
    FlightRecorder::record(E);
  }
}

/// Smallest ring start() grants: 64 slots.
constexpr size_t MinRingBytes = 64 * sizeof(TraceEvent);

class FlightRecorderTest : public testing::Test {
protected:
  void TearDown() override { FlightRecorder::stop(); }
};

TEST_F(FlightRecorderTest, RecordsBelowCapacityWithoutLoss) {
  FlightRecorder::start(MinRingBytes);
  recordSelfChecking(40);
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  ASSERT_EQ(Events.size(), 40u);
  for (uint64_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Events[I].StartNs, static_cast<int64_t>(I)) << "order lost";
    EXPECT_EQ(Events[I].DurationNs, 2 * Events[I].StartNs + 1);
  }
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Recorded, 40u);
  EXPECT_EQ(S.Overwritten, 0u);
  EXPECT_EQ(S.Threads, 1u);
}

TEST_F(FlightRecorderTest, OverwriteKeepsTheMostRecentWindow) {
  FlightRecorder::start(MinRingBytes);
  const uint64_t Cap = FlightRecorder::stats().SlotsPerThread;
  ASSERT_EQ(Cap, 64u);
  recordSelfChecking(3 * Cap);
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  // Once wrapped, snapshot() yields Cap - 1 events: it cannot prove
  // the writer is quiescent, so the oldest slot — the one an
  // unpublished in-flight write would be reusing — is always dropped.
  ASSERT_EQ(Events.size(), Cap - 1);
  // The surviving window is exactly the most recent Cap - 1 events,
  // in order.
  for (uint64_t I = 0; I != Cap - 1; ++I)
    EXPECT_EQ(Events[I].StartNs, static_cast<int64_t>(2 * Cap + 1 + I));
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Recorded, 3 * Cap);
  EXPECT_EQ(S.Overwritten, 2 * Cap);
}

TEST_F(FlightRecorderTest, MemoryStaysBoundedAtTheConfiguredCap) {
  const size_t Bytes = 4096;
  FlightRecorder::start(Bytes);
  recordSelfChecking(100000);
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Threads, 1u);
  EXPECT_EQ(S.SlotsPerThread, Bytes / sizeof(TraceEvent));
  EXPECT_LE(S.BytesInUse, S.Threads * Bytes);
  EXPECT_EQ(S.BytesInUse,
            uint64_t(S.Threads) * S.SlotsPerThread * sizeof(TraceEvent));
}

TEST_F(FlightRecorderTest, StartDiscardsThePreviousWindowAndResizes) {
  FlightRecorder::start(MinRingBytes);
  recordSelfChecking(50);
  FlightRecorder::start(2 * MinRingBytes);
  EXPECT_TRUE(FlightRecorder::snapshot().empty())
      << "start() must discard previously buffered events";
  recordSelfChecking(10);
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.SlotsPerThread, 128u);
  EXPECT_EQ(S.Recorded, 10u);
}

// The contention matrix the header promises: N writer threads racing
// one snapshotting reader; every returned event must satisfy the
// self-check relation (no torn slots) and per-thread order must hold.
class FlightRecorderContentionTest
    : public FlightRecorderTest,
      public testing::WithParamInterface<unsigned> {};

TEST_P(FlightRecorderContentionTest, SnapshotNeverTearsUnderContention) {
  const unsigned Writers = GetParam();
  const uint64_t PerThread = 20000;
  FlightRecorder::start(MinRingBytes);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> SnapshotsStarted{0};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::thread Reader([&] {
    while (!Stop.load()) {
      SnapshotsStarted.fetch_add(1);
      for (const TraceEvent &E : FlightRecorder::snapshot()) {
        // A torn event breaks the payload relation; failing inside the
        // reader thread would be lost, so collect and assert below.
        if (E.DurationNs != 2 * E.StartNs + 1)
          std::abort();
      }
      SnapshotsTaken.fetch_add(1);
    }
  });

  // Each writer holds its last record until a snapshot that started
  // after it got there, so while it was still writing, has completed:
  // the reader provably overlaps every writer, however the threads are
  // scheduled.
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Writers; ++T)
    Threads.emplace_back([&, T] {
      uint64_t Base = uint64_t(T) << 32;
      recordSelfChecking(PerThread - 1, Base);
      uint64_t Started = SnapshotsStarted.load();
      while (SnapshotsTaken.load() <= Started)
        std::this_thread::yield();
      recordSelfChecking(1, Base + PerThread - 1);
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();
  EXPECT_GT(SnapshotsTaken.load(), 0u);

  // Quiescent now: the final snapshot must hold the last window of
  // every writer (Cap - 1 events per wrapped ring — the oldest slot is
  // always dropped as potentially in-flight), in per-thread order.
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Threads, Writers);
  EXPECT_EQ(S.Recorded, uint64_t(Writers) * PerThread);
  EXPECT_EQ(S.Overwritten, uint64_t(Writers) * (PerThread - 64));
  ASSERT_EQ(Events.size(), uint64_t(Writers) * 63);
  for (size_t I = 1; I != Events.size(); ++I) {
    if (Events[I].Tid == Events[I - 1].Tid) {
      EXPECT_EQ(Events[I].StartNs, Events[I - 1].StartNs + 1)
          << "per-thread window not contiguous at " << I;
    }
  }
  for (const TraceEvent &E : Events)
    ASSERT_EQ(E.DurationNs, 2 * E.StartNs + 1) << "torn event survived";
}

INSTANTIATE_TEST_SUITE_P(Contention, FlightRecorderContentionTest,
                         testing::Values(1u, 4u, 8u));

TEST_F(FlightRecorderTest, SpanGateFeedsRingsWithoutFullTracing) {
  FlightRecorder::start(MinRingBytes);
  ASSERT_FALSE(Trace::enabled()) << "full tracing must stay disarmed";
  ASSERT_TRUE(Trace::capturing()) << "flight bit must open the Span gate";
  { Span S("FlightRecorderTest::span", "test"); }
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "FlightRecorderTest::span");
  EXPECT_TRUE(Trace::snapshot().empty())
      << "flight-only spans must not reach the full trace buffers";
  FlightRecorder::stop();
  EXPECT_FALSE(Trace::capturing());
}

TEST_F(FlightRecorderTest, DumpIsValidChromeTraceWithHeader) {
  FlightRecorder::start(MinRingBytes);
  { Span S("FlightRecorderTest::dumped", "test"); }
  std::string Error;
  std::optional<json::Value> Dump =
      json::parse(FlightRecorder::toJson("unit-test"), &Error);
  ASSERT_TRUE(Dump.has_value()) << Error;
  const json::Value *Header = Dump->find("flightRecorder");
  ASSERT_NE(Header, nullptr);
  EXPECT_EQ(Header->stringAt("reason"), "unit-test");
  EXPECT_EQ(Header->uintAt("recorded"), 1u);
  ASSERT_NE(Header->find("build"), nullptr);
  const json::Value *Events = Dump->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  bool FoundSpan = false;
  for (const json::Value &E : Events->asArray())
    FoundSpan |= E.stringAt("name") == "FlightRecorderTest::dumped";
  EXPECT_TRUE(FoundSpan);
}

TEST_F(FlightRecorderTest, PostmortemDumpsAndJournals) {
  const char *Path = "flight_postmortem_test.json";
  std::remove(Path);
  EventLog::start("");
  FlightRecorder::start(MinRingBytes, Path);
  { Span S("FlightRecorderTest::postmortem", "test"); }
  EXPECT_TRUE(FlightRecorder::postmortem("unit-test"));

  std::ifstream File(Path);
  ASSERT_TRUE(File.good()) << "postmortem must write the configured path";
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  std::optional<json::Value> Dump = json::parse(Buffer.str());
  ASSERT_TRUE(Dump.has_value());
  EXPECT_EQ(Dump->find("flightRecorder")->stringAt("reason"), "unit-test");

  bool Journaled = false;
  for (const std::string &Line : EventLog::recentLines())
    Journaled |= Line.find("flight-dump") != std::string::npos;
  EXPECT_TRUE(Journaled) << "postmortem must leave a journal event";
  EventLog::stop();
  std::remove(Path);
}

} // namespace
