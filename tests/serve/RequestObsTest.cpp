//===- tests/serve/RequestObsTest.cpp - Per-request observability ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-request observability contract: request IDs adopted/minted
// and echoed end to end, stamped into spans (the request's own and
// the analysis spans it runs), journal lines, and error bodies;
// the pdt-access-v1 access log's one-line-per-request accounting with
// per-request TestStats deltas; the /v1/metricz Prometheus exposition
// checked against a grammar; and the /v1/debug/* live endpoints. The
// end-to-end socket test is the acceptance criterion: one request with
// X-PDT-Request-Id: demo must be joinable across every artifact.
//
//===----------------------------------------------------------------------===//

#include "serve/AccessLog.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/RequestContext.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pdt;
using namespace pdt::serve;

namespace {

HttpRequest makeRequest(const std::string &Method, const std::string &Target,
                        const std::string &Body = "",
                        const std::string &RequestId = "") {
  HttpRequest R;
  R.Method = Method;
  R.Target = Target;
  R.Version = "HTTP/1.1";
  if (!Body.empty())
    R.Headers.push_back({"Content-Type", "application/json"});
  if (!RequestId.empty())
    R.Headers.push_back({"X-PDT-Request-Id", RequestId});
  R.Body = Body;
  return R;
}

const std::string *responseHeader(const HttpResponse &R,
                                  const std::string &Name) {
  for (const HttpHeader &H : R.Headers)
    if (headerNameEquals(H.Name, Name))
      return &H.Value;
  return nullptr;
}

json::Value parsedBody(const std::string &Body) {
  std::string Error;
  std::optional<json::Value> V = json::parse(Body, &Error);
  EXPECT_TRUE(V.has_value()) << Error << " in: " << Body;
  return V ? *V : json::Value();
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "pdt_reqobs_" + Name;
}

/// Body lines of a JSONL artifact (header object skipped).
std::vector<json::Value> jsonlLines(const std::string &Path) {
  std::ifstream File(Path);
  EXPECT_TRUE(File.is_open()) << "cannot open " << Path;
  std::vector<json::Value> Out;
  std::string Line;
  bool First = true;
  while (std::getline(File, Line)) {
    if (Line.empty())
      continue;
    std::optional<json::Value> V = json::parse(Line);
    EXPECT_TRUE(V.has_value()) << "malformed JSONL line: " << Line;
    if (!V)
      continue;
    if (First) {
      First = false;
      EXPECT_EQ(V->stringAt("schema").value_or(""), "pdt-access-v1");
      continue;
    }
    Out.push_back(std::move(*V));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// RequestContext
//===----------------------------------------------------------------------===//

TEST(RequestContext, ValidIdAcceptsTokenCharsAndRejectsTheRest) {
  EXPECT_TRUE(RequestContext::validId("demo"));
  EXPECT_TRUE(RequestContext::validId("a"));
  EXPECT_TRUE(RequestContext::validId("Trace-1.2_rc3"));
  EXPECT_TRUE(RequestContext::validId(std::string(64, 'x')));
  EXPECT_FALSE(RequestContext::validId(""));
  EXPECT_FALSE(RequestContext::validId(std::string(65, 'x')));
  EXPECT_FALSE(RequestContext::validId("has space"));
  EXPECT_FALSE(RequestContext::validId("new\nline"));
  EXPECT_FALSE(RequestContext::validId("quo\"te"));
  EXPECT_FALSE(RequestContext::validId("non-ascii\xc3\xa9"));
}

TEST(RequestContext, MintedIdsAreSequentialUniqueAndValid) {
  std::string A = RequestContext::mint(RequestContext::nextSequence());
  std::string B = RequestContext::mint(RequestContext::nextSequence());
  EXPECT_NE(A, B);
  EXPECT_TRUE(RequestContext::validId(A));
  EXPECT_TRUE(RequestContext::validId(B));
  EXPECT_EQ(A.rfind("pdt-", 0), 0u) << A;
}

TEST(RequestContext, ScopesNestAndRestore) {
  uint32_t Before = RequestContext::current();
  uint32_t Outer = RequestContext::intern("outer");
  {
    RequestContext::Scope S1(Outer);
    EXPECT_EQ(RequestContext::current(), Outer);
    EXPECT_EQ(RequestContext::idFor(RequestContext::current()), "outer");
    uint32_t Inner = RequestContext::intern("inner");
    {
      RequestContext::Scope S2(Inner);
      EXPECT_EQ(RequestContext::idFor(RequestContext::current()), "inner");
    }
    EXPECT_EQ(RequestContext::current(), Outer);
  }
  EXPECT_EQ(RequestContext::current(), Before);
}

TEST(RequestContext, RecycledInternSlotsResolveToEmptyNotWrongId) {
  // The intern table is a bounded ring: after RecentCapacity more
  // interns, an old token's slot has been reused and must resolve to
  // "" (never to another request's ID).
  uint32_t Old = RequestContext::intern("the-old-one");
  ASSERT_EQ(RequestContext::idFor(Old), "the-old-one");
  for (unsigned I = 0; I != RequestContext::RecentCapacity; ++I)
    RequestContext::intern("filler-" + std::to_string(I));
  EXPECT_EQ(RequestContext::idFor(Old), "");
}

//===----------------------------------------------------------------------===//
// Service-level identity
//===----------------------------------------------------------------------===//

TEST(RequestObs, ClientIdIsEchoedInHeaderAndKeptOutOfSuccessBodies) {
  Service S;
  HttpResponse R = S.handle(
      makeRequest("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}", "demo"));
  ASSERT_EQ(R.Status, 200);
  const std::string *Id = responseHeader(R, "X-PDT-Request-Id");
  ASSERT_NE(Id, nullptr);
  EXPECT_EQ(*Id, "demo");
  // The determinism contract: a successful analysis body is a pure
  // function of the request bytes, so the ID must not appear in it.
  EXPECT_EQ(R.Body.find("demo"), std::string::npos);
}

TEST(RequestObs, MissingOrInvalidIdsGetMintedOnes) {
  Service S;
  HttpResponse NoId = S.handle(makeRequest("GET", "/healthz"));
  const std::string *Minted = responseHeader(NoId, "X-PDT-Request-Id");
  ASSERT_NE(Minted, nullptr);
  EXPECT_EQ(Minted->rfind("pdt-", 0), 0u) << *Minted;

  HttpResponse BadId =
      S.handle(makeRequest("GET", "/healthz", "", "not a valid id!"));
  const std::string *Replaced = responseHeader(BadId, "X-PDT-Request-Id");
  ASSERT_NE(Replaced, nullptr);
  EXPECT_NE(*Replaced, "not a valid id!");
  EXPECT_EQ(Replaced->rfind("pdt-", 0), 0u) << *Replaced;

  // Minted IDs are distinct across requests.
  HttpResponse Again = S.handle(makeRequest("GET", "/healthz"));
  ASSERT_NE(responseHeader(Again, "X-PDT-Request-Id"), nullptr);
  EXPECT_NE(*responseHeader(Again, "X-PDT-Request-Id"), *Minted);
}

TEST(RequestObs, ErrorBodiesCarryTheRequestId) {
  Service S;
  HttpResponse R =
      S.handle(makeRequest("GET", "/no-such-endpoint", "", "demo-err"));
  EXPECT_EQ(R.Status, 404);
  json::Value V = parsedBody(R.Body);
  EXPECT_EQ(V.stringAt("request_id").value_or(""), "demo-err");
  ASSERT_NE(responseHeader(R, "X-PDT-Request-Id"), nullptr);
  EXPECT_EQ(*responseHeader(R, "X-PDT-Request-Id"), "demo-err");
}

TEST(RequestObs, JournalEventsCarrySeqAndRequestId) {
  ASSERT_TRUE(EventLog::start(""));
  Service S;
  S.handle(makeRequest("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}",
                       "demo-journal"));
  bool Found = false;
  for (const std::string &Line : EventLog::recentLines()) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    EXPECT_GT(V->uintAt("seq").value_or(0), 0u)
        << "every journal line carries a seq: " << Line;
    if (V->stringAt("req").value_or("") == "demo-journal" &&
        V->stringAt("what").value_or("") == "request")
      Found = true;
  }
  EventLog::stop();
  EXPECT_TRUE(Found) << "no serve/request journal event named demo-journal";
}

TEST(RequestObs, SpansCarryTheRequestIdIntoTheAnalysis) {
  ASSERT_TRUE(FlightRecorder::start());
  Service S;
  HttpResponse R = S.handle(
      makeRequest("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}",
                  "demo-spans"));
  ASSERT_EQ(R.Status, 200);

  bool RequestSpan = false, AnalysisSpan = false;
  for (const TraceEvent &E : FlightRecorder::snapshot()) {
    if (RequestContext::idFor(E.Req) != "demo-spans")
      continue;
    if (std::string(E.Name) == "serve.request")
      RequestSpan = true;
    else
      AnalysisSpan = true;
  }
  FlightRecorder::stop();
  EXPECT_TRUE(RequestSpan) << "the serve.request span lost its request ID";
  EXPECT_TRUE(AnalysisSpan) << "no analysis span carried the request ID";
}

//===----------------------------------------------------------------------===//
// Access log
//===----------------------------------------------------------------------===//

TEST(RequestObs, AccessLogWritesOneLinePerRequestWithMatchingStats) {
  std::string Path = tempPath("access_service.jsonl");
  ASSERT_TRUE(AccessLog::start(Path));
  Service S;
  HttpResponse Analyze = S.handle(makeRequest(
      "POST", "/v1/analyze", "{\"corpus\":\"dgefa_update\"}", "demo-access"));
  ASSERT_EQ(Analyze.Status, 200);
  HttpResponse Health = S.handle(makeRequest("GET", "/healthz"));
  ASSERT_EQ(Health.Status, 200);
  EXPECT_EQ(AccessLog::linesWritten(), 2u);
  AccessLog::stop();

  std::vector<json::Value> Lines = jsonlLines(Path);
  ASSERT_EQ(Lines.size(), 2u);
  const json::Value &A = Lines[0];
  EXPECT_EQ(A.stringAt("id").value_or(""), "demo-access");
  EXPECT_EQ(A.stringAt("route").value_or(""), "POST /v1/analyze");
  EXPECT_EQ(A.uintAt("status").value_or(0), 200u);
  EXPECT_EQ(A.uintAt("bytes_in").value_or(0),
            std::string("{\"corpus\":\"dgefa_update\"}").size());
  EXPECT_EQ(A.uintAt("bytes_out").value_or(0), Analyze.Body.size());
  EXPECT_GT(A.uintAt("wall_ns").value_or(0), 0u);
  EXPECT_GT(A.uintAt("analyze_ns").value_or(0), 0u);
  EXPECT_EQ(A.uintAt("analyses").value_or(0), 1u);

  // The line's stats are this request's delta and must equal the
  // stats the response body reported.
  const json::Value *LineStats = A.find("stats");
  ASSERT_NE(LineStats, nullptr);
  json::Value Body = parsedBody(Analyze.Body);
  const json::Value *BodyStats = Body.find("stats");
  ASSERT_NE(BodyStats, nullptr);
  for (const char *Key :
       {"reference_pairs", "proven_independent", "degraded"})
    EXPECT_EQ(LineStats->uintAt(Key).value_or(~0ull),
              BodyStats->uintAt(Key).value_or(0))
        << "stats delta mismatch for " << Key;
  EXPECT_GT(LineStats->uintAt("reference_pairs").value_or(0), 0u);
  ASSERT_NE(A.find("routing"), nullptr);

  // The healthz line: same accounting, zero analysis work.
  EXPECT_EQ(Lines[1].stringAt("route").value_or(""), "GET /healthz");
  EXPECT_EQ(Lines[1].uintAt("analyses").value_or(1), 0u);
}

TEST(RequestObs, AccessLogDisarmedIsANoOp) {
  AccessLog::stop();
  EXPECT_FALSE(AccessLog::enabled());
  Service S;
  EXPECT_EQ(S.handle(makeRequest("GET", "/healthz")).Status, 200);
}

TEST(RequestObsDeath, AccessLogArmsFromTheEnvironment) {
  // The child re-executes this binary, so PDT_ACCESS_LOG reaches its
  // static initialization. The path carries the parent's pid: the child
  // re-runs this body and must not unlink the log its arming opened.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string Path =
      tempPath("env_access." + std::to_string(getpid()) + ".jsonl");
  std::remove(Path.c_str());
  setenv("PDT_ACCESS_LOG", Path.c_str(), 1);
  EXPECT_EXIT(
      {
        AccessRecord R;
        R.Id = "env-armed";
        R.Route = "GET /healthz";
        R.Status = 200;
        AccessLog::append(R);
        std::exit(AccessLog::enabled() && AccessLog::linesWritten() == 1 ? 0
                                                                         : 1);
      },
      testing::ExitedWithCode(0), "");
  unsetenv("PDT_ACCESS_LOG");

  std::ifstream File(Path);
  std::string Header;
  ASSERT_TRUE(std::getline(File, Header)) << "missing " << Path;
  std::optional<json::Value> H = json::parse(Header);
  ASSERT_TRUE(H.has_value()) << Header;
  EXPECT_NE(H->find("build"), nullptr);
  EXPECT_TRUE(H->stringAt("start").has_value());
  std::vector<json::Value> Lines = jsonlLines(Path);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Lines[0].stringAt("id").value_or(""), "env-armed");
  EXPECT_EQ(Lines[0].stringAt("route").value_or(""), "GET /healthz");
  EXPECT_EQ(Lines[0].uintAt("status").value_or(0), 200u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// /v1/metricz
//===----------------------------------------------------------------------===//

TEST(RequestObs, MetriczParsesUnderThePrometheusGrammar) {
  ASSERT_TRUE(Metrics::enable());
  Metrics::observe(Histo::ServeRequestNs, 0);
  Metrics::observe(Histo::ServeRequestNs, 5);
  Metrics::observe(Histo::ServeRequestNs, 123456789);
  Service S;
  HttpResponse R = S.handle(makeRequest("GET", "/v1/metricz"));
  Metrics::stop();
  ASSERT_EQ(R.Status, 200);
  ASSERT_NE(responseHeader(R, "Content-Type"), nullptr);
  EXPECT_EQ(responseHeader(R, "Content-Type")->rfind("text/plain", 0), 0u);

  // Line grammar of the text exposition format (version 0.0.4),
  // restricted to what toPrometheus emits: HELP/TYPE comments and
  // integer-valued samples with at most an le label.
  std::regex Help("# HELP [a-zA-Z_][a-zA-Z0-9_]* .+");
  std::regex Type("# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)");
  std::regex Sample(
      "[a-zA-Z_][a-zA-Z0-9_]*(_bucket\\{le=\"([0-9]+|\\+Inf)\"\\})? [0-9]+");

  std::istringstream Stream(R.Body);
  std::string Line;
  uint64_t Samples = 0, Cumulative = 0, Count = ~0ull;
  std::string Histogram;
  while (std::getline(Stream, Line)) {
    ASSERT_FALSE(Line.empty()) << "blank line in exposition";
    if (Line[0] == '#') {
      EXPECT_TRUE(std::regex_match(Line, Help) ||
                  std::regex_match(Line, Type))
          << "bad comment line: " << Line;
      if (Line.rfind("# TYPE ", 0) == 0) {
        bool IsHistogram = Line.find(" histogram") != std::string::npos;
        Histogram =
            IsHistogram ? Line.substr(7, Line.find(' ', 7) - 7) : "";
        Cumulative = 0;
        Count = ~0ull;
      }
      continue;
    }
    ++Samples;
    ASSERT_TRUE(std::regex_match(Line, Sample)) << "bad sample: " << Line;
    // Cumulative-bucket invariants within each histogram family.
    size_t Space = Line.rfind(' ');
    uint64_t Value = std::stoull(Line.substr(Space + 1));
    if (!Histogram.empty() && Line.rfind(Histogram + "_bucket", 0) == 0) {
      EXPECT_GE(Value, Cumulative) << "non-monotone bucket: " << Line;
      Cumulative = Value;
      if (Line.find("le=\"+Inf\"") != std::string::npos)
        Count = Value;
    } else if (!Histogram.empty() &&
               Line.rfind(Histogram + "_count", 0) == 0) {
      EXPECT_EQ(Value, Count) << "le=\"+Inf\" bucket must equal _count";
    }
  }
  EXPECT_GT(Samples, 0u);

  // The documented le bounds are exact for bit_width bucketing: the
  // three observations (0, 5, 123456789 ns) land at le=0, le=7, and
  // +Inf-side cumulative counts.
  EXPECT_NE(R.Body.find("pdt_latency_serve_request_ns_bucket{le=\"0\"} 1"),
            std::string::npos)
      << R.Body;
  EXPECT_NE(R.Body.find("pdt_latency_serve_request_ns_bucket{le=\"7\"} 2"),
            std::string::npos)
      << R.Body;
  EXPECT_NE(R.Body.find("pdt_latency_serve_request_ns_count 3"),
            std::string::npos)
      << R.Body;
}

//===----------------------------------------------------------------------===//
// /v1/debug/*
//===----------------------------------------------------------------------===//

TEST(RequestObs, DebugRequestsReportsTheRingNewestIncluded) {
  Service S;
  S.handle(makeRequest("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}",
                       "ring-1"));
  S.handle(makeRequest("GET", "/healthz", "", "ring-2"));
  HttpResponse R =
      S.handle(makeRequest("GET", "/v1/debug/requests", "", "ring-debug"));
  ASSERT_EQ(R.Status, 200);
  json::Value V = parsedBody(R.Body);
  EXPECT_EQ(V.stringAt("schema").value_or(""), "pdt-serve-requests-v1");
  EXPECT_EQ(V.uintAt("capacity").value_or(0), Service::DebugRingCapacity);
  const json::Value *Requests = V.find("requests");
  ASSERT_NE(Requests, nullptr);
  bool SawCompleted = false, SawSelfInFlight = false;
  for (const json::Value &Entry : Requests->asArray()) {
    std::string Id = Entry.stringAt("id").value_or("");
    if (Id == "ring-1") {
      SawCompleted = true;
      EXPECT_FALSE(Entry.boolAt("in_flight").value_or(true));
      EXPECT_EQ(Entry.uintAt("status").value_or(0), 200u);
      EXPECT_GT(Entry.uintAt("wall_ns").value_or(0), 0u);
      const json::Value *Stats = Entry.find("stats");
      ASSERT_NE(Stats, nullptr);
      EXPECT_GT(Stats->uintAt("reference_pairs").value_or(0), 0u);
    }
    if (Id == "ring-debug") {
      // The debug request reports itself, still in flight.
      SawSelfInFlight = true;
      EXPECT_TRUE(Entry.boolAt("in_flight").value_or(false));
    }
  }
  EXPECT_TRUE(SawCompleted);
  EXPECT_TRUE(SawSelfInFlight);
}

TEST(RequestObs, DebugRingIsBoundedAtCapacity) {
  Service S;
  for (size_t I = 0; I != Service::DebugRingCapacity + 8; ++I)
    S.handle(makeRequest("GET", "/healthz"));
  EXPECT_LE(S.recentRequests().size(), Service::DebugRingCapacity);
}

TEST(RequestObs, DebugFlightIs404DisarmedAnd200Armed) {
  Service S;
  FlightRecorder::stop();
  EXPECT_EQ(S.handle(makeRequest("GET", "/v1/debug/flight")).Status, 404);

  ASSERT_TRUE(FlightRecorder::start());
  S.handle(makeRequest("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}"));
  HttpResponse Armed = S.handle(makeRequest("GET", "/v1/debug/flight"));
  FlightRecorder::stop();
  ASSERT_EQ(Armed.Status, 200);
  json::Value V = parsedBody(Armed.Body);
  const json::Value *Header = V.find("flightRecorder");
  ASSERT_NE(Header, nullptr);
  EXPECT_EQ(Header->stringAt("reason").value_or(""), "serve-debug");
  EXPECT_NE(V.find("traceEvents"), nullptr);
}

//===----------------------------------------------------------------------===//
// End to end over a real socket (the acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(RequestObs, EndToEndDemoRequestJoinsEveryArtifact) {
  std::string Path = tempPath("access_e2e.jsonl");
  ASSERT_TRUE(AccessLog::start(Path));
  ASSERT_TRUE(EventLog::start(""));
  ASSERT_TRUE(FlightRecorder::start());

  {
    ServerConfig Config;
    Config.Port = 0;
    Config.Threads = 2;
    Service Svc;
    Server Daemon(Config, Svc);
    std::string Error;
    ASSERT_TRUE(Daemon.start(&Error)) << Error;

    Client C;
    ASSERT_TRUE(C.connectTo(Daemon.port(), &Error)) << Error;
    ClientResponse R;
    ASSERT_TRUE(C.request("POST", "/v1/analyze", "{\"corpus\":\"daxpy\"}", R,
                          &Error, {{"X-PDT-Request-Id", "demo"}}))
        << Error;
    ASSERT_EQ(R.Status, 200);

    // 1. The response header names the request.
    EXPECT_EQ(R.RequestId, "demo");
    EXPECT_EQ(C.lastRequestId(), "demo");

    // 2. At least one span carries the ID.
    bool Span = false;
    for (const TraceEvent &E : FlightRecorder::snapshot())
      Span |= RequestContext::idFor(E.Req) == "demo";
    EXPECT_TRUE(Span) << "no flight-recorder span tagged req=demo";

    // 3. At least one journal event carries the ID.
    bool Journal = false;
    for (const std::string &Line : EventLog::recentLines())
      Journal |= Line.find("\"req\": \"demo\"") != std::string::npos;
    EXPECT_TRUE(Journal) << "no journal event tagged req=demo";

    // 4. Exactly one access line, and its stats delta equals the
    //    stats in the response the client saw.
    Daemon.requestDrain();
    Daemon.waitDrained();
    AccessLog::stop();
    std::vector<json::Value> Lines = jsonlLines(Path);
    unsigned DemoLines = 0;
    for (const json::Value &L : Lines) {
      if (L.stringAt("id").value_or("") != "demo")
        continue;
      ++DemoLines;
      EXPECT_EQ(L.stringAt("route").value_or(""), "POST /v1/analyze");
      EXPECT_EQ(L.uintAt("status").value_or(0), 200u);
      EXPECT_EQ(L.uintAt("bytes_out").value_or(0), R.Body.size());
      json::Value Body = parsedBody(R.Body);
      const json::Value *BodyStats = Body.find("stats");
      const json::Value *LineStats = L.find("stats");
      ASSERT_NE(BodyStats, nullptr);
      ASSERT_NE(LineStats, nullptr);
      for (const char *Key :
           {"reference_pairs", "proven_independent", "degraded"})
        EXPECT_EQ(LineStats->uintAt(Key).value_or(~0ull),
                  BodyStats->uintAt(Key).value_or(0))
            << Key;
    }
    EXPECT_EQ(DemoLines, 1u);
  }

  FlightRecorder::stop();
  EventLog::stop();
}

TEST(RequestObs, SocketErrorPathsGetMintedIdentityAndAccessLines) {
  std::string Path = tempPath("access_err.jsonl");
  ASSERT_TRUE(AccessLog::start(Path));
  {
    ServerConfig Config;
    Config.Port = 0;
    Config.Threads = 1;
    Service Svc;
    Server Daemon(Config, Svc);
    std::string Error;
    ASSERT_TRUE(Daemon.start(&Error)) << Error;

    // Malformed HTTP never reaches the router, but is still answered
    // — with an identity.
    Client C;
    ASSERT_TRUE(C.connectTo(Daemon.port(), &Error)) << Error;
    ASSERT_TRUE(C.sendRaw("NOT A REQUEST LINE\r\n\r\n", &Error)) << Error;
    ClientResponse R;
    ASSERT_TRUE(C.readResponse(R, &Error)) << Error;
    EXPECT_EQ(R.Status, 400);
    EXPECT_FALSE(R.RequestId.empty());
    EXPECT_EQ(R.RequestId.rfind("pdt-", 0), 0u) << R.RequestId;
    EXPECT_EQ(parsedBody(R.Body).stringAt("request_id").value_or(""),
              R.RequestId);

    Daemon.requestDrain();
    Daemon.waitDrained();
  }
  AccessLog::stop();
  std::vector<json::Value> Lines = jsonlLines(Path);
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_EQ(Lines[0].stringAt("route").value_or(""), "-");
  EXPECT_EQ(Lines[0].uintAt("status").value_or(0), 400u);
  EXPECT_GT(Lines[0].uintAt("bytes_in").value_or(0), 0u);
}

//===----------------------------------------------------------------------===//
// Docs cross-check
//===----------------------------------------------------------------------===//

std::string readRepoFile(const std::string &Relative) {
  std::ifstream File(std::string(PDT_REPO_ROOT) + "/" + Relative);
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

TEST(RequestObsDocs, ServingDocsCoverTheRequestObservabilitySurface) {
  std::string Serving = readRepoFile("docs/SERVING.md");
  ASSERT_FALSE(Serving.empty());
  for (const char *Needle :
       {"X-PDT-Request-Id", "pdt-access-v1", "PDT_ACCESS_LOG",
        "/v1/metricz", "/v1/debug/flight", "/v1/debug/requests",
        "request_id"})
    EXPECT_NE(Serving.find(Needle), std::string::npos)
        << "docs/SERVING.md does not document " << Needle;

  std::string Operations = readRepoFile("docs/OPERATIONS.md");
  ASSERT_FALSE(Operations.empty());
  for (const char *Needle :
       {"X-PDT-Request-Id", "depmon access", "PDT_ACCESS_LOG"})
    EXPECT_NE(Operations.find(Needle), std::string::npos)
        << "docs/OPERATIONS.md does not document " << Needle;
}

} // namespace
