//===- tests/support/MonitorDeathTest.cpp - Postmortem death tests --------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The black-box contract on the real death path: a SIGABRT with
// PDT_FLIGHT armed must leave a parseable Chrome-trace dump with
// reason "crash" holding the spans recorded before the abort, and a
// PDT_EVENTS journal whose already-flushed lines survive — including
// when PDT_FAULT_INJECT is armed and the injected fault is what set
// the crash in motion. The death tests use the "threadsafe" style:
// the child re-executes the binary, so its static initializers see
// the PDT_* variables set here and arm the real env wiring.
//
//===----------------------------------------------------------------------===//

#include "driver/Analyzer.h"
#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

using namespace pdt;

namespace {

std::string slurp(const char *Path) {
  std::ifstream File(Path);
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

/// Parses a flight dump and requires reason "crash" plus \p SpanName
/// among the events.
void expectCrashDump(const char *Path, const char *SpanName) {
  std::string Error;
  std::optional<json::Value> Dump = json::parse(slurp(Path), &Error);
  ASSERT_TRUE(Dump.has_value())
      << "flight dump is not valid JSON: " << Error;
  const json::Value *Header = Dump->find("flightRecorder");
  ASSERT_NE(Header, nullptr);
  EXPECT_EQ(Header->stringAt("reason"), "crash");
  EXPECT_GE(Header->uintAt("recorded").value_or(0), 1u);
  bool Found = false;
  if (const json::Value *Events = Dump->find("traceEvents"))
    for (const json::Value &E : Events->asArray())
      Found |= E.stringAt("name") == SpanName;
  EXPECT_TRUE(Found) << "span recorded before the abort missing from "
                     << Path;
}

TEST(MonitorDeath, AbortWritesFlightDumpAndJournalSurvives) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Pid-unique paths: the threadsafe child re-executes this whole test
  // body, and its std::remove calls must not unlink the journal the
  // child's own static init (armed via the inherited PDT_EVENTS) has
  // already opened — the child removes paths derived from its pid, the
  // armed paths carry the parent's.
  std::string DumpName =
      "monitor_death_flight." + std::to_string(getpid()) + ".json";
  std::string JournalName =
      "monitor_death_journal." + std::to_string(getpid()) + ".jsonl";
  const char *DumpPath = DumpName.c_str();
  const char *JournalPath = JournalName.c_str();
  std::remove(DumpPath);
  std::remove(JournalPath);
  setenv("PDT_FLIGHT", ("on,16k," + DumpName).c_str(), 1);
  setenv("PDT_EVENTS", JournalPath, 1);
  EXPECT_DEATH(
      {
        EventLog::event(EventSeverity::Info, "test", "pre-crash");
        { Span S("MonitorDeathTest::doomed", "test"); }
        std::abort();
      },
      "crash-flushing PDT_FLIGHT");
  unsetenv("PDT_FLIGHT");
  unsetenv("PDT_EVENTS");

  expectCrashDump(DumpPath, "MonitorDeathTest::doomed");

  // The journal is flushed per line: the header, the pre-crash event,
  // and the postmortem's own flight-dump event must all have survived.
  std::ifstream Journal(JournalPath);
  ASSERT_TRUE(Journal.good());
  std::string Line;
  bool SawHeader = false, SawPreCrash = false, SawDumpEvent = false;
  while (std::getline(Journal, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << "journal line corrupt: " << Line;
    SawHeader |= V->stringAt("schema") == "pdt-events-v1";
    SawPreCrash |= V->stringAt("what") == "pre-crash";
    SawDumpEvent |= V->stringAt("what") == "flight-dump";
  }
  EXPECT_TRUE(SawHeader);
  EXPECT_TRUE(SawPreCrash);
  EXPECT_TRUE(SawDumpEvent) << "crash postmortem must journal the dump";
  std::remove(DumpPath);
  std::remove(JournalPath);
}

TEST(MonitorDeath, FlightDumpSurvivesAbortUnderFaultInjection) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string DumpName =
      "monitor_death_inject." + std::to_string(getpid()) + ".json";
  const char *DumpPath = DumpName.c_str();
  std::remove(DumpPath);
  setenv("PDT_FLIGHT", ("on,16k," + DumpName).c_str(), 1);
  // Site 4 lands in the pair tester (see CrashSafetyTest): the
  // injected fault degrades the analysis — spans recorded along the
  // way — and the abort afterwards must still find intact rings.
  setenv("PDT_FAULT_INJECT", "internal@4", 1);
  EXPECT_DEATH(
      {
        AnalyzerOptions Opt;
        Opt.NumThreads = 1;
        { Span S("MonitorDeathTest::injected", "test"); }
        analyzeSource("do i = 1, 8\n"
                      "  a(i) = a(i-1)\n"
                      "end do\n",
                      "monitor-death-workload", Opt);
        std::abort();
      },
      "crash-flushing PDT_FLIGHT");
  unsetenv("PDT_FLIGHT");
  unsetenv("PDT_FAULT_INJECT");
  expectCrashDump(DumpPath, "MonitorDeathTest::injected");
  std::remove(DumpPath);
}

} // namespace
