//===- tests/support/ThreadTelemetryTest.cpp - Per-thread state reuse ----===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-thread telemetry registry: a thread that starts after another
// exited takes over its state with the spans intact, concurrent threads
// each get their own, and pooled graph builds, which start fresh worker
// threads every time, keep as many flight rings and trace tids as
// threads are alive at once rather than one per worker ever started.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "core/DependenceGraph.h"
#include "driver/Analyzer.h"
#include "driver/WorkloadGenerator.h"
#include "support/FlightRecorder.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace pdt;

namespace {

ThreadTelemetry *stateOfANewThread() {
  ThreadTelemetry *State = nullptr;
  std::thread([&] {
    State = &ThreadTelemetry::local();
    Span S("ThreadTelemetryTest::span", "test");
  }).join();
  return State;
}

std::set<uint32_t> tidsOf(const std::vector<TraceEvent> &Events) {
  std::set<uint32_t> Tids;
  for (const TraceEvent &E : Events)
    Tids.insert(E.Tid);
  return Tids;
}

TEST(ThreadTelemetry, ThreadsStartedOneAfterAnotherShareOneState) {
  Trace::start("");
  ThreadTelemetry *First = stateOfANewThread();
  ThreadTelemetry *Second = stateOfANewThread();
  EXPECT_EQ(First, Second) << "the second thread must take over the state "
                              "the first one left at exit";
  // Both spans survive their threads' exits, in the one ring and under
  // the one tid.
  std::vector<TraceEvent> Events = Trace::snapshot();
  Trace::stop();
  Trace::clear();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Tid, First->Tid);
  EXPECT_EQ(Events[1].Tid, First->Tid);
}

// A thread takes its state when its first span starts. Were it taken
// at the first span's end, B below would take over the state A leaves
// at exit, and A's span and B's, which cross in time, would share a
// tid and break the per-thread nesting Profile relies on.
TEST(ThreadTelemetry, AStateIsTakenWhenTheFirstSpanStarts) {
  std::atomic<int> Step{0};
  auto waitFor = [&](int S) {
    while (Step.load() < S)
      std::this_thread::yield();
  };
  Trace::start("");
  std::thread A([&] {
    Span S("ThreadTelemetryTest::a", "test");
    Step = 1;
    waitFor(2);
  });
  std::thread B([&] {
    waitFor(1);
    Span S("ThreadTelemetryTest::b", "test");
    Step = 2;
    waitFor(3);
  });
  waitFor(2);
  A.join();
  Step = 3;
  B.join();
  std::vector<TraceEvent> Events = Trace::snapshot();
  Trace::stop();
  Trace::clear();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NE(Events[0].Tid, Events[1].Tid);
}

TEST(ThreadTelemetry, ConcurrentThreadsEachGetTheirOwnState) {
  const unsigned N = 4;
  std::vector<ThreadTelemetry *> States(N);
  States.push_back(&ThreadTelemetry::local());
  std::atomic<unsigned> Arrived{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      States[I] = &ThreadTelemetry::local();
      // Nobody exits before every thread holds its state.
      Arrived.fetch_add(1);
      while (Arrived.load() != N)
        std::this_thread::yield();
    });
  for (std::thread &T : Threads)
    T.join();
  std::set<ThreadTelemetry *> Distinct(States.begin(), States.end());
  EXPECT_EQ(Distinct.size(), N + 1);
}

// Every pooled build starts fresh worker threads, so the states its
// workers leave at exit must serve the next build's: twenty 4-thread
// builds of bench_x3's program may hold no more flight rings, flight
// memory or tids than the 4 threads alive at once.
TEST(ThreadTelemetry, PooledBuildsKeepOneStatePerLiveThread) {
  std::mt19937_64 Rng(0xBADC0FFEE);
  std::string Source = generateRandomProgramSource(Rng, /*NumNests=*/64,
                                                   /*MaxDepth=*/3,
                                                   /*StmtsPerNest=*/3);
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Parsed = analyzeSource(Source, "thread-reuse", Opt);
  ASSERT_TRUE(Parsed.Parsed);
  SymbolRangeMap Symbols;
  Symbols.try_emplace("n", Interval(1, std::nullopt));

  FlightRecorder::start();
  Trace::start("");
  for (int Build = 0; Build != 20; ++Build)
    DependenceGraph::build(*Parsed.Prog, Symbols, nullptr, false,
                           /*NumThreads=*/4);
  std::vector<TraceEvent> Flight = FlightRecorder::snapshot();
  std::vector<TraceEvent> Full = Trace::snapshot();
  FlightRecorder::Stats Stats = FlightRecorder::stats();
  Trace::stop();
  Trace::clear();
  FlightRecorder::stop();

  EXPECT_LE(Stats.Threads, 4u);
  EXPECT_LE(Stats.BytesInUse, 4 * FlightRecorder::DefaultBytesPerThread);
  EXPECT_LE(tidsOf(Flight).size(), 4u);
  EXPECT_LE(tidsOf(Full).size(), 4u);
  EXPECT_GE(tidsOf(Full).size(), 2u) << "the builds ran on no pool thread";
}

} // namespace
