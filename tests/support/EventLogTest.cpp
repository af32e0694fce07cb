//===- tests/support/EventLogTest.cpp - Event journal tests ---------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pdt-events-v1 journal: header + line schema, per-severity
// counts, the bounded recent-lines ring, and the per-(layer,what)
// rate limiter under an injected clock — the mechanism that keeps a
// degradation storm from becoming an unbounded log.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace pdt;

namespace {

std::atomic<uint64_t> FakeMs{0};
uint64_t fakeClock() { return FakeMs.load(std::memory_order_relaxed); }

class EventLogTest : public testing::Test {
protected:
  void TearDown() override {
    EventLog::stop();
    EventLog::setClockForTest(nullptr);
    EventLog::configureRateLimit(32, 1000); // Built-in defaults.
  }
};

TEST_F(EventLogTest, CountsBySeverity) {
  EventLog::start("");
  EventLog::event(EventSeverity::Info, "test", "a");
  EventLog::event(EventSeverity::Warn, "test", "b");
  EventLog::event(EventSeverity::Warn, "test", "c");
  EventLog::event(EventSeverity::Error, "test", "d");
  EventLog::Counts C = EventLog::counts();
  EXPECT_EQ(C.emitted(EventSeverity::Info), 1u);
  EXPECT_EQ(C.emitted(EventSeverity::Warn), 2u);
  EXPECT_EQ(C.emitted(EventSeverity::Error), 1u);
  EXPECT_EQ(C.total(), 4u);
  EXPECT_EQ(C.Suppressed, 0u);
  EXPECT_EQ(EventLog::recentLines().size(), 4u);
}

TEST_F(EventLogTest, DisabledJournalSwallowsNothingIntoCounts) {
  EventLog::start("");
  EventLog::stop();
  EventLog::event(EventSeverity::Error, "test", "after-stop");
  EXPECT_EQ(EventLog::counts().total(), 0u);
}

TEST_F(EventLogTest, EveryLineIsValidJsonWithTheDocumentedMembers) {
  EventLog::setClockForTest(fakeClock);
  FakeMs.store(42);
  EventLog::start("");
  EventLog::event(EventSeverity::Warn, "core", "degraded-pair",
                  "overflow: subscript blew up", {{"src", 3}, {"snk", 7}});
  std::vector<std::string> Lines = EventLog::recentLines();
  ASSERT_EQ(Lines.size(), 1u);
  std::string Error;
  std::optional<json::Value> V = json::parse(Lines[0], &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->uintAt("t_ms"), 42u);
  EXPECT_EQ(V->stringAt("sev"), "warn");
  EXPECT_EQ(V->stringAt("layer"), "core");
  EXPECT_EQ(V->stringAt("what"), "degraded-pair");
  EXPECT_EQ(V->stringAt("detail"), "overflow: subscript blew up");
  const json::Value *Fields = V->find("fields");
  ASSERT_NE(Fields, nullptr);
  EXPECT_EQ(Fields->uintAt("src"), 3u);
  EXPECT_EQ(Fields->uintAt("snk"), 7u);
}

TEST_F(EventLogTest, FileJournalStartsWithAParseableBuildHeader) {
  const char *Path = "eventlog_test.jsonl";
  std::remove(Path);
  ASSERT_TRUE(EventLog::start(Path));
  EventLog::event(EventSeverity::Info, "test", "one");
  EventLog::stop();

  std::ifstream File(Path);
  ASSERT_TRUE(File.good());
  std::string Line;
  ASSERT_TRUE(std::getline(File, Line));
  std::optional<json::Value> Header = json::parse(Line);
  ASSERT_TRUE(Header.has_value()) << "header must be valid JSON";
  EXPECT_EQ(Header->stringAt("schema"), "pdt-events-v1");
  ASSERT_NE(Header->find("build"), nullptr)
      << "journal header must stamp build info";
  EXPECT_EQ(Header->find("build")->stringAt("version"),
            std::string("pdt-analyzer-v7"));
  ASSERT_TRUE(std::getline(File, Line));
  std::optional<json::Value> Event = json::parse(Line);
  ASSERT_TRUE(Event.has_value());
  EXPECT_EQ(Event->stringAt("what"), "one");
  EXPECT_FALSE(std::getline(File, Line)) << "exactly header + one event";
  std::remove(Path);
}

TEST_F(EventLogTest, SeqIsStrictlyMonotonicOnEveryLine) {
  EventLog::start("");
  for (int I = 0; I != 5; ++I)
    EventLog::event(EventSeverity::Info, "test", "seq", std::to_string(I));
  uint64_t Prev = 0;
  for (const std::string &Line : EventLog::recentLines()) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    std::optional<uint64_t> Seq = V->uintAt("seq");
    ASSERT_TRUE(Seq.has_value()) << "line without seq: " << Line;
    EXPECT_GT(*Seq, Prev) << Line;
    Prev = *Seq;
  }
  EXPECT_GT(Prev, 0u);
}

TEST_F(EventLogTest, SeqIsNeverResetByRestart) {
  // The sequence is per-process, not per-session: a journal line
  // written after stop()/start() must still order after every line
  // written before, so interleaved logs from one process can always
  // be totally ordered.
  EventLog::start("");
  EventLog::event(EventSeverity::Info, "test", "before");
  std::vector<std::string> First = EventLog::recentLines();
  ASSERT_FALSE(First.empty());
  uint64_t LastBefore =
      json::parse(First.back())->uintAt("seq").value_or(0);
  EventLog::stop();

  EventLog::start("");
  EventLog::event(EventSeverity::Info, "test", "after");
  std::vector<std::string> Second = EventLog::recentLines();
  ASSERT_FALSE(Second.empty());
  uint64_t FirstAfter =
      json::parse(Second.back())->uintAt("seq").value_or(0);
  EXPECT_GT(FirstAfter, LastBefore);
}

TEST_F(EventLogTest, RateLimiterSuppressesAndReportsOnNextLine) {
  EventLog::setClockForTest(fakeClock);
  FakeMs.store(0);
  EventLog::start("");
  EventLog::configureRateLimit(/*MaxPerWindow=*/2, /*WindowMs=*/1000);

  for (int I = 0; I != 5; ++I)
    EventLog::event(EventSeverity::Warn, "test", "storm");
  EventLog::Counts C = EventLog::counts();
  EXPECT_EQ(C.emitted(EventSeverity::Warn), 2u);
  EXPECT_EQ(C.Suppressed, 3u);

  // A different (layer, what) key has its own window.
  EventLog::event(EventSeverity::Warn, "test", "other");
  EXPECT_EQ(EventLog::counts().emitted(EventSeverity::Warn), 3u);

  // The next window emits again and carries the suppressed count of
  // the storm key on its first line.
  FakeMs.store(1000);
  EventLog::event(EventSeverity::Warn, "test", "storm");
  std::vector<std::string> Lines = EventLog::recentLines();
  ASSERT_FALSE(Lines.empty());
  std::optional<json::Value> Last = json::parse(Lines.back());
  ASSERT_TRUE(Last.has_value());
  EXPECT_EQ(Last->uintAt("suppressed"), 3u)
      << "suppressed count must surface on the next emitted line";
}

} // namespace
