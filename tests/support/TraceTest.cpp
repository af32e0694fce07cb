//===- tests/support/TraceTest.cpp - Scoped tracing tests -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The trace contract: armed runs produce valid Chrome trace-event
// JSON, spans nest properly within each thread at 1, 4, and 8 workers,
// and a run that exercises the whole pipeline covers every
// instrumented layer.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "core/DependenceGraph.h"
#include "core/DependenceTester.h"
#include "core/FourierMotzkin.h"
#include "driver/Analyzer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace pdt;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON syntax validator (no external dependency): enough to
// prove the emitted document is well-formed JSON, which is what
// chrome://tracing and Perfetto require.
//===----------------------------------------------------------------------===//

class JsonValidator {
public:
  explicit JsonValidator(const std::string &Text) : Text(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool eat(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
      }
      ++Pos;
    }
    return eat('"');
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (isdigit(peek()))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      while (isdigit(peek()))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (isdigit(peek()))
        ++Pos;
    }
    return Pos > Start;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool value() {
    skipWs();
    switch (peek()) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    if (!eat('{'))
      return false;
    skipWs();
    if (eat('}'))
      return true;
    do {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    if (!eat('['))
      return false;
    skipWs();
    if (eat(']'))
      return true;
    do {
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat(']');
  }
};

/// A program whose analysis touches the graph, cache, tester, SIV,
/// Delta, and (at > 1 worker) pool layers.
const char *Workload = "do i = 1, 60\n"
                       "  do j = 1, 60\n"
                       "    a(i+1, j) = a(i, j+1)\n"
                       "    b(i, j) = b(i, j-1) + a(i, j)\n"
                       "    c(2*i) = c(2*i+1)\n"
                       "  end do\n"
                       "end do\n"
                       "do i = 1, 50\n"
                       "  d(i+1, i) = d(i, i+1)\n"
                       "end do\n";

/// Runs the workload (graph build at \p Threads workers plus one
/// explicit Fourier-Motzkin query) with tracing armed and returns the
/// recorded events.
std::vector<TraceEvent> traceWorkload(unsigned Threads) {
  AnalysisResult R = analyzeSource(Workload, "trace-workload");
  EXPECT_TRUE(R.Parsed);
  EXPECT_TRUE(Trace::start(""));

  DependenceGraph::build(*R.Prog, R.ResolvedSymbols, nullptr, false, Threads);

  // FM is a baseline the practical suite never calls; query it
  // directly so its layer appears.
  std::vector<ArrayAccess> Accesses = collectAccesses(*R.Prog);
  EXPECT_GE(Accesses.size(), 2u);
  if (Accesses.size() >= 2)
    if (std::optional<PreparedPair> P =
            prepareAccessPair(Accesses[0], Accesses[1], R.ResolvedSymbols))
      fourierMotzkinTest(P->Subscripts, P->Ctx);

  std::vector<TraceEvent> Events = Trace::snapshot();
  Trace::stop();
  return Events;
}

/// Spans within one thread must nest: for any two spans A, B on the
/// same thread, their intervals are either disjoint or one contains
/// the other.
void expectProperNesting(const std::vector<TraceEvent> &Events) {
  std::map<uint32_t, std::vector<TraceEvent>> PerThread;
  for (const TraceEvent &E : Events)
    PerThread[E.Tid].push_back(E);

  for (auto &[Tid, Spans] : PerThread) {
    // snapshot() sorts by (start asc, duration desc), so a parent
    // precedes its children. Walk with an interval stack.
    std::vector<int64_t> EndStack;
    for (const TraceEvent &E : Spans) {
      int64_t Start = E.StartNs, End = E.StartNs + E.DurationNs;
      ASSERT_GE(E.DurationNs, 0) << E.Name;
      while (!EndStack.empty() && Start >= EndStack.back())
        EndStack.pop_back();
      if (!EndStack.empty()) {
        EXPECT_LE(End, EndStack.back())
            << "span " << E.Name << " on tid " << Tid
            << " partially overlaps its enclosing span";
      }
      EndStack.push_back(End);
    }
  }
}

} // namespace

TEST(Trace, DisarmedRecordsNothing) {
  Trace::stop();
  Trace::clear();
  {
    Span S("should-not-appear", "test");
  }
  EXPECT_TRUE(Trace::snapshot().empty());
}

TEST(Trace, EmitsValidJson) {
  std::vector<TraceEvent> Events = traceWorkload(1);
  ASSERT_FALSE(Events.empty());

  std::string Json = Trace::toJson(Events);
  EXPECT_TRUE(JsonValidator(Json).valid()) << "malformed trace JSON";
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Trace, WritesFileThatIsValidJson) {
  AnalysisResult R = analyzeSource(Workload, "trace-file");
  ASSERT_TRUE(R.Parsed);

  std::string Path = ::testing::TempDir() + "pdt_trace_test.json";
  ASSERT_TRUE(Trace::start(Path));
  DependenceGraph::build(*R.Prog, R.ResolvedSymbols, nullptr, false, 2);
  ASSERT_TRUE(Trace::stop());

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());

  EXPECT_TRUE(JsonValidator(Data).valid()) << "malformed trace file";
  EXPECT_NE(Data.find("thread_name"), std::string::npos);
}

TEST(Trace, SpansNestAtOneWorker) {
  expectProperNesting(traceWorkload(1));
}

TEST(Trace, SpansNestAtFourWorkers) {
  expectProperNesting(traceWorkload(4));
}

TEST(Trace, SpansNestAtEightWorkers) {
  expectProperNesting(traceWorkload(8));
}

TEST(Trace, CoversAllInstrumentedLayers) {
  std::vector<TraceEvent> Events = traceWorkload(4);

  std::set<std::string> Categories;
  std::set<std::string> Names;
  for (const TraceEvent &E : Events) {
    Categories.insert(E.Category);
    Names.insert(E.Name);
  }

  // The six layers the acceptance contract names, plus the SIV tests.
  EXPECT_TRUE(Names.count("DependenceGraph::build"));
  EXPECT_TRUE(Names.count("AccessLoweringCache::lower"));
  EXPECT_TRUE(Names.count("AccessLoweringCache::testPair"));
  EXPECT_TRUE(Names.count("testDependence"));
  EXPECT_TRUE(Names.count("DeltaTest::run"));
  EXPECT_TRUE(Names.count("FourierMotzkin::test"));
  EXPECT_TRUE(Names.count("ThreadPool::parallelFor"));
  EXPECT_TRUE(Names.count("SIVTests::testSIV"));
  EXPECT_GE(Categories.size(), 6u) << "instrumented layer coverage shrank";
}

TEST(Trace, StartClearsPreviousEvents) {
  Trace::start("");
  { Span S("first", "test"); }
  ASSERT_FALSE(Trace::snapshot().empty());
  Trace::start("");
  EXPECT_TRUE(Trace::snapshot().empty());
  Trace::stop();
}
