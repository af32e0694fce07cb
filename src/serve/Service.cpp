//===- serve/Service.cpp - Request routing for depserved --------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "driver/Analyzer.h"
#include "driver/Corpus.h"
#include "ir/PrettyPrinter.h"
#include "core/Explain.h"
#include "parser/Parser.h"
#include "serve/AccessLog.h"
#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/RequestContext.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <mutex>

using namespace pdt;
using namespace pdt::serve;

//===----------------------------------------------------------------------===//
// Canonical tables (cross-checked against docs/SERVING.md by tests)
//===----------------------------------------------------------------------===//

const std::vector<std::string> &pdt::serve::allEndpoints() {
  static const std::vector<std::string> Endpoints = {
      "GET /healthz",          "GET /v1/version",
      "GET /v1/stats",         "GET /v1/corpus",
      "GET /v1/metricz",       "GET /v1/debug/flight",
      "GET /v1/debug/requests", "POST /v1/analyze",
      "POST /v1/batch",
  };
  return Endpoints;
}

const std::vector<int> &pdt::serve::allStatusCodes() {
  static const std::vector<int> Codes = {100, 200, 400, 404, 405, 408, 413,
                                         422, 429, 431, 500, 501, 503, 505};
  return Codes;
}

const std::vector<std::string> &pdt::serve::allEnvKnobs() {
  static const std::vector<std::string> Knobs = {
      "PDT_SERVE_PORT",        "PDT_SERVE_THREADS",  "PDT_SERVE_QUEUE",
      "PDT_SERVE_DEADLINE_MS", "PDT_SERVE_MAX_PAIRS", "PDT_SERVE_MAX_BODY",
      "PDT_SERVE_IDLE_MS",     "PDT_ACCESS_LOG",
  };
  return Knobs;
}

//===----------------------------------------------------------------------===//
// Response helpers
//===----------------------------------------------------------------------===//

namespace {

HttpResponse jsonResponse(int Status, std::string Body) {
  HttpResponse R;
  R.Status = Status;
  R.Headers.push_back({"Content-Type", "application/json"});
  R.Body = std::move(Body);
  return R;
}

/// The stable machine-readable code for each status (the "error"
/// member of every non-2xx body).
const char *errorCode(int Status) {
  switch (Status) {
  case 400: return "bad-request";
  case 404: return "not-found";
  case 405: return "method-not-allowed";
  case 408: return "request-timeout";
  case 413: return "payload-too-large";
  case 422: return "unparseable-kernel";
  case 429: return "too-many-requests";
  case 431: return "header-fields-too-large";
  case 500: return "internal";
  case 501: return "not-implemented";
  case 503: return "draining";
  case 505: return "version-not-supported";
  default: return "error";
  }
}

std::string quoted(const std::string &S) {
  return "\"" + json::escape(S) + "\"";
}

} // namespace

HttpResponse pdt::serve::errorResponse(int Status, const std::string &Detail) {
  std::string Body = "{\"error\":";
  Body += quoted(errorCode(Status));
  Body += ",\"detail\":";
  Body += quoted(Detail);
  // Error bodies are diagnostics, not analysis results, so they may —
  // and for triage, must — name the request. Success bodies never do
  // (the determinism contract); there the ID lives in the response
  // header only.
  if (uint32_t Req = RequestContext::current()) {
    std::string Id = RequestContext::idFor(Req);
    if (!Id.empty()) {
      Body += ",\"request_id\":";
      Body += quoted(Id);
    }
  }
  Body += "}\n";
  return jsonResponse(Status, std::move(Body));
}

//===----------------------------------------------------------------------===//
// Request specs
//===----------------------------------------------------------------------===//

namespace {

struct KernelSpec {
  std::string Name;
  std::string Source;
  bool FromCorpus = false;
  std::string Error; ///< Nonempty: resolution failed (batch keeps going).
};

struct AnalyzeSpec {
  std::vector<KernelSpec> Kernels;
  AnalyzerOptions Options;
  bool Explain = false;
  bool IncludeProgram = false;
};

/// Builds AnalyzerOptions from the request's "options" object, with
/// the per-request budget clamped to the service limits. Returns
/// false with \p Error set on any malformed or unknown member.
bool parseOptions(const json::Value *Opts, const ServiceLimits &Limits,
                  AnalyzerOptions &Out, std::string &Error) {
  // Server-side defaults first: requests may lower, never raise.
  Out.NumThreads = 1;
  if (Limits.DeadlineMs)
    Out.Budget.Deadline = std::chrono::milliseconds(Limits.DeadlineMs);
  Out.Budget.MaxPairs = Limits.MaxPairs;

  if (!Opts)
    return true;
  if (!Opts->isObject()) {
    Error = "\"options\" must be an object";
    return false;
  }
  for (const json::Member &M : Opts->asObject()) {
    const std::string &Key = M.first;
    const json::Value &V = M.second;
    if (Key == "normalize" || Key == "ivsub" || Key == "input_deps") {
      if (!V.isBool()) {
        Error = "\"options." + Key + "\" must be a boolean";
        return false;
      }
      if (Key == "normalize")
        Out.Normalize = V.asBool();
      else if (Key == "ivsub")
        Out.SubstituteIVs = V.asBool();
      else
        Out.IncludeInputDeps = V.asBool();
    } else if (Key == "budget_ms" || Key == "max_pairs") {
      if (!V.isNumber() || V.asDouble() < 0 ||
          V.asDouble() != static_cast<double>(V.asInt())) {
        Error = "\"options." + Key + "\" must be a non-negative integer";
        return false;
      }
      uint64_t Requested = V.asUInt();
      if (Key == "budget_ms") {
        uint64_t Cap = Limits.DeadlineMs;
        uint64_t Effective =
            Cap == 0 ? Requested
                     : (Requested == 0 ? Cap : std::min(Requested, Cap));
        if (Effective)
          Out.Budget.Deadline = std::chrono::milliseconds(Effective);
        else
          Out.Budget.Deadline.reset();
      } else {
        uint64_t Cap = Limits.MaxPairs;
        Out.Budget.MaxPairs =
            Cap == 0 ? Requested
                     : (Requested == 0 ? Cap : std::min(Requested, Cap));
      }
    } else if (Key == "symbols") {
      if (!V.isObject()) {
        Error = "\"options.symbols\" must be an object of [lo, hi] ranges";
        return false;
      }
      for (const json::Member &Sym : V.asObject()) {
        if (!Sym.second.isArray() || Sym.second.asArray().size() != 2) {
          Error = "symbol range for \"" + Sym.first +
                  "\" must be a [lo, hi] pair (null = unbounded)";
          return false;
        }
        const json::Value &Lo = Sym.second.asArray()[0];
        const json::Value &Hi = Sym.second.asArray()[1];
        if ((!Lo.isNull() && !Lo.isNumber()) ||
            (!Hi.isNull() && !Hi.isNumber())) {
          Error = "symbol range bounds for \"" + Sym.first +
                  "\" must be integers or null";
          return false;
        }
        Bound L = Lo.isNull() ? Bound{} : Bound{Lo.asInt()};
        Bound H = Hi.isNull() ? Bound{} : Bound{Hi.asInt()};
        if (L && H && *L > *H) {
          Error = "symbol range for \"" + Sym.first + "\" is empty";
          return false;
        }
        Out.Symbols[Sym.first] = Interval(L, H);
      }
    } else {
      Error = "unknown member \"options." + Key + "\"";
      return false;
    }
  }
  return true;
}

/// One kernel descriptor: {"source": "..."} or {"corpus": "name"},
/// plus an optional display "name".
bool parseKernel(const json::Value &V, KernelSpec &Out, std::string &Error) {
  if (!V.isObject()) {
    Error = "kernel descriptor must be an object";
    return false;
  }
  const json::Value *Source = nullptr;
  const json::Value *Corpus = nullptr;
  for (const json::Member &M : V.asObject()) {
    if (M.first == "source")
      Source = &M.second;
    else if (M.first == "corpus")
      Corpus = &M.second;
    else if (M.first == "name") {
      if (!M.second.isString()) {
        Error = "\"name\" must be a string";
        return false;
      }
      Out.Name = M.second.asString();
    } else {
      Error = "unknown member \"" + M.first + "\" in kernel descriptor";
      return false;
    }
  }
  if ((Source != nullptr) == (Corpus != nullptr)) {
    Error = "kernel descriptor needs exactly one of \"source\" or \"corpus\"";
    return false;
  }
  if (Source) {
    if (!Source->isString()) {
      Error = "\"source\" must be a string";
      return false;
    }
    Out.Source = Source->asString();
    if (Out.Name.empty())
      Out.Name = "<request>";
  } else {
    if (!Corpus->isString()) {
      Error = "\"corpus\" must be a string";
      return false;
    }
    Out.FromCorpus = true;
    const CorpusKernel *K = findKernel(Corpus->asString());
    if (!K) {
      Out.Error = "unknown corpus kernel \"" + Corpus->asString() + "\"";
      Out.Name = Corpus->asString();
      return true; // resolution error, not a malformed request
    }
    Out.Source = K->Source;
    if (Out.Name.empty())
      Out.Name = K->Name;
  }
  return true;
}

/// Parses the /v1/analyze or /v1/batch body.
bool parseSpec(const json::Value &Doc, bool Batch, const ServiceLimits &Limits,
               AnalyzeSpec &Out, std::string &Error) {
  if (!Doc.isObject()) {
    Error = "request body must be a JSON object";
    return false;
  }
  const json::Value *Options = nullptr;
  const json::Value *Kernels = nullptr;
  KernelSpec Single;
  bool SawInline = false;
  for (const json::Member &M : Doc.asObject()) {
    const std::string &Key = M.first;
    if (Key == "options") {
      Options = &M.second;
    } else if (Key == "explain" || Key == "program") {
      if (!M.second.isBool()) {
        Error = "\"" + Key + "\" must be a boolean";
        return false;
      }
      (Key == "explain" ? Out.Explain : Out.IncludeProgram) = M.second.asBool();
    } else if (!Batch && (Key == "source" || Key == "corpus" ||
                          Key == "name")) {
      SawInline = true; // parsed below via parseKernel on the whole doc
    } else if (Batch && Key == "kernels") {
      Kernels = &M.second;
    } else {
      Error = "unknown member \"" + Key + "\"";
      return false;
    }
  }
  if (!parseOptions(Options, Limits, Out.Options, Error))
    return false;

  if (!Batch) {
    if (!SawInline) {
      Error = "request needs one of \"source\" or \"corpus\"";
      return false;
    }
    // Strip the non-kernel members before reusing parseKernel.
    std::vector<json::Member> KernelMembers;
    for (const json::Member &M : Doc.asObject())
      if (M.first == "source" || M.first == "corpus" || M.first == "name")
        KernelMembers.push_back(M);
    if (!parseKernel(json::Value(std::move(KernelMembers)), Single, Error))
      return false;
    Out.Kernels.push_back(std::move(Single));
    return true;
  }

  if (!Kernels || !Kernels->isArray()) {
    Error = "\"kernels\" must be an array of kernel descriptors";
    return false;
  }
  if (Kernels->asArray().empty()) {
    Error = "\"kernels\" must not be empty";
    return false;
  }
  if (Limits.MaxBatchKernels &&
      Kernels->asArray().size() > Limits.MaxBatchKernels) {
    Error = "batch of " + std::to_string(Kernels->asArray().size()) +
            " kernels exceeds the cap of " +
            std::to_string(Limits.MaxBatchKernels);
    return false;
  }
  for (const json::Value &K : Kernels->asArray()) {
    KernelSpec Spec;
    if (!parseKernel(K, Spec, Error))
      return false;
    Out.Kernels.push_back(std::move(Spec));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Result rendering
//===----------------------------------------------------------------------===//

/// Renders one analyzed kernel as the pdt-serve-v1 result object.
/// Pure function of the AnalysisResult: no timestamps, no counters —
/// the concurrent-determinism contract depends on it.
std::string renderResult(const KernelSpec &Spec, const AnalysisResult &R,
                         const AnalyzeSpec &Request) {
  std::string Out = "{\"schema\":\"pdt-serve-v1\",\"name\":";
  Out += quoted(Spec.Name);
  Out += ",\"parsed\":true,\"accesses\":[";
  const std::vector<ArrayAccess> &Accesses = R.Graph.accesses();
  for (size_t I = 0; I != Accesses.size(); ++I) {
    if (I)
      Out += ',';
    Out += "{\"id\":" + std::to_string(I);
    Out += ",\"array\":" + quoted(Accesses[I].Ref->getArrayName());
    Out += ",\"write\":";
    Out += Accesses[I].IsWrite ? "true" : "false";
    Out += ",\"depth\":" + std::to_string(Accesses[I].LoopStack.size());
    Out += '}';
  }
  Out += "],\"edges\":[";
  const std::vector<Dependence> &Edges = R.Graph.dependences();
  for (size_t I = 0; I != Edges.size(); ++I) {
    const Dependence &D = Edges[I];
    if (I)
      Out += ',';
    Out += "{\"src\":" + std::to_string(D.Source);
    Out += ",\"sink\":" + std::to_string(D.Sink);
    Out += ",\"kind\":" + quoted(dependenceKindName(D.Kind));
    Out += ",\"vector\":" + quoted(D.Vector.str());
    Out += ",\"carrier\":";
    Out += D.Carrier ? quoted(D.Carrier->getIndexName()) : "null";
    Out += ",\"level\":";
    Out += D.CarriedLevel ? std::to_string(*D.CarriedLevel) : "null";
    Out += ",\"exact\":";
    Out += D.Exact ? "true" : "false";
    Out += ",\"degraded\":";
    Out += D.Degraded ? "true" : "false";
    Out += ",\"reason\":";
    Out += D.DegradedReason ? quoted(failureKindName(*D.DegradedReason))
                            : "null";
    Out += '}';
  }
  Out += "],\"loops\":[";
  std::vector<const DoLoop *> Loops = R.Graph.allLoops();
  for (size_t I = 0; I != Loops.size(); ++I) {
    if (I)
      Out += ',';
    Out += "{\"index\":" + quoted(Loops[I]->getIndexName());
    Out += ",\"parallel\":";
    Out += R.Graph.isLoopParallel(Loops[I]) ? "true" : "false";
    Out += ",\"carried\":" +
           std::to_string(R.Graph.carriedEdgeCount(Loops[I]));
    Out += '}';
  }
  Out += "],\"stats\":{\"reference_pairs\":";
  Out += std::to_string(R.Stats.ReferencePairs);
  Out += ",\"proven_independent\":";
  Out += std::to_string(R.Stats.IndependentPairs);
  Out += ",\"degraded\":";
  Out += std::to_string(R.Stats.DegradedResults);
  Out += "},\"failures\":[";
  for (size_t I = 0; I != R.Failures.size(); ++I) {
    if (I)
      Out += ',';
    Out += quoted(R.Failures[I].str());
  }
  Out += "]";
  if (Request.Explain && R.Prog) {
    Out += ",\"explain\":";
    Out += quoted(explainProgram(*R.Prog, R.ResolvedSymbols,
                                 Request.Options.IncludeInputDeps));
  }
  if (Request.IncludeProgram && R.Prog) {
    Out += ",\"program\":";
    Out += quoted(programToString(*R.Prog));
  }
  Out += '}';
  return Out;
}

/// The 422 body for an unparseable kernel (also embedded in batch
/// results).
std::string renderParseFailure(const KernelSpec &Spec,
                               const std::vector<Diagnostic> &Diagnostics) {
  std::string Out = "{\"error\":\"unparseable-kernel\",\"name\":";
  Out += quoted(Spec.Name);
  Out += ",\"detail\":\"kernel source failed to parse\",\"diagnostics\":[";
  for (size_t I = 0; I != Diagnostics.size(); ++I) {
    if (I)
      Out += ',';
    Out += quoted(Diagnostics[I].str());
  }
  Out += "]}";
  return Out;
}

std::string renderResolutionFailure(const KernelSpec &Spec) {
  std::string Out = "{\"error\":\"not-found\",\"name\":";
  Out += quoted(Spec.Name);
  Out += ",\"detail\":";
  Out += quoted(Spec.Error);
  Out += '}';
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

struct Service::StatsCell {
  std::mutex Mutex;
  TestStats Stats;
};

/// What route() hands back to handle() about the one request it just
/// served, for the access line, the debug ring, and the journal event.
struct Service::RouteTelemetry {
  uint64_t AnalyzeNs = 0; ///< Parsing and analyzing the kernels.
  uint64_t Analyses = 0;  ///< Kernels analyzed to completion.
  TestStats Delta;        ///< This request's TestStats contribution.
};

/// The /v1/debug/requests backing store: a slot-keyed in-flight list
/// (slots, not IDs, so concurrent requests reusing one client ID stay
/// distinct) plus a bounded ring of completed summaries.
struct Service::DebugRing {
  std::mutex Mutex;
  uint64_t NextSlot = 0;
  std::vector<std::pair<uint64_t, RequestSummary>> InFlight;
  std::deque<RequestSummary> Completed;

  uint64_t noteStart(const std::string &Id, const std::string &Route) {
    std::lock_guard<std::mutex> Lock(Mutex);
    uint64_t Slot = ++NextSlot;
    RequestSummary S;
    S.Id = Id;
    S.Route = Route;
    InFlight.push_back({Slot, std::move(S)});
    return Slot;
  }

  void noteFinish(uint64_t Slot, RequestSummary Done) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (size_t I = 0; I != InFlight.size(); ++I) {
      if (InFlight[I].first == Slot) {
        InFlight.erase(InFlight.begin() + I);
        break;
      }
    }
    Completed.push_back(std::move(Done));
    if (Completed.size() > DebugRingCapacity)
      Completed.pop_front();
  }
};

Service::Service(ServiceLimits Limits)
    : Limits(Limits), Stats(std::make_shared<StatsCell>()),
      Ring(std::make_shared<DebugRing>()) {}

ServiceLimits Service::limitsFromEnvironment() {
  ServiceLimits L;
  if (std::optional<int64_t> V = envInt("PDT_SERVE_DEADLINE_MS", 0, 3600000))
    L.DeadlineMs = static_cast<uint64_t>(*V);
  if (std::optional<int64_t> V =
          envInt("PDT_SERVE_MAX_PAIRS", 0, 1000000000000))
    L.MaxPairs = static_cast<uint64_t>(*V);
  return L;
}

ServiceCounters Service::counters() const {
  ServiceCounters C;
  C.Requests = CRequests.load(std::memory_order_relaxed);
  C.Ok = COk.load(std::memory_order_relaxed);
  C.ClientErrors = CClient.load(std::memory_order_relaxed);
  C.ServerErrors = CServer.load(std::memory_order_relaxed);
  C.Analyses = CAnalyses.load(std::memory_order_relaxed);
  C.ParseFailures = CParseFailures.load(std::memory_order_relaxed);
  C.ReferencePairs = CRefPairs.load(std::memory_order_relaxed);
  C.IndependentPairs = CIndependent.load(std::memory_order_relaxed);
  C.DegradedResults = CDegraded.load(std::memory_order_relaxed);
  C.EdgesEmitted = CEdges.load(std::memory_order_relaxed);
  return C;
}

TestStats Service::accumulatedStats() const {
  std::lock_guard<std::mutex> Lock(Stats->Mutex);
  return Stats->Stats;
}

std::vector<RequestSummary> Service::recentRequests() const {
  std::lock_guard<std::mutex> Lock(Ring->Mutex);
  std::vector<RequestSummary> Out;
  Out.reserve(Ring->InFlight.size() + Ring->Completed.size());
  for (const std::pair<uint64_t, RequestSummary> &P : Ring->InFlight)
    Out.push_back(P.second);
  for (const RequestSummary &S : Ring->Completed)
    Out.push_back(S);
  return Out;
}

HttpResponse Service::handle(const HttpRequest &Req) {
  CRequests.fetch_add(1, std::memory_order_relaxed);

  // Adopt the client's X-PDT-Request-Id (when well-formed) or mint one;
  // the scope makes the ID visible to every span, journal line, and
  // flight slot this request produces.
  std::string Id;
  if (const std::string *H = Req.header("X-PDT-Request-Id");
      H && RequestContext::validId(*H))
    Id = *H;
  else
    Id = RequestContext::mint(RequestContext::nextSequence());
  RequestContext::Scope Ctx(RequestContext::intern(Id));

  std::string Route =
      Req.Method + " " + Req.Target.substr(0, Req.Target.find('?'));
  uint64_t Slot = Ring->noteStart(Id, Route);

  int64_t T0 = Trace::nowNs();
  RouteTelemetry T;
  HttpResponse R;
  {
    // One span per request, so a flight dump shows the request even
    // when the route touched no instrumented analysis code.
    Span RequestSpan("serve.request", "serve");
    try {
      R = route(Req, T);
    } catch (const std::exception &E) {
      EventLog::event(EventSeverity::Error, "serve", "internal-error",
                      E.what());
      R = errorResponse(500, "internal error");
    } catch (...) {
      EventLog::event(EventSeverity::Error, "serve", "internal-error",
                      "unknown exception");
      R = errorResponse(500, "internal error");
    }
  }
  uint64_t WallNs = static_cast<uint64_t>(Trace::nowNs() - T0);

  if (R.Status >= 500)
    CServer.fetch_add(1, std::memory_order_relaxed);
  else if (R.Status >= 400)
    CClient.fetch_add(1, std::memory_order_relaxed);
  else
    COk.fetch_add(1, std::memory_order_relaxed);

  // Every response names its request (success bodies never do — the
  // header is the only determinism-safe channel).
  R.Headers.push_back({"X-PDT-Request-Id", Id});

  // One journal event per request (the per-(layer,what) rate limiter
  // applies; the access log below is the exempt, exact record).
  EventLog::event(EventSeverity::Info, "serve", "request", Route,
                  {{"status", static_cast<uint64_t>(R.Status)},
                   {"wall_ns", WallNs},
                   {"analyses", T.Analyses}});

  RequestSummary Done;
  Done.Id = Id;
  Done.Route = Route;
  Done.Status = R.Status;
  Done.WallNs = WallNs;
  Done.AnalyzeNs = T.AnalyzeNs;
  Done.Analyses = T.Analyses;
  Done.ReferencePairs = T.Delta.ReferencePairs;
  Done.IndependentPairs = T.Delta.IndependentPairs;
  Done.DegradedResults = T.Delta.DegradedResults;
  Ring->noteFinish(Slot, std::move(Done));

  // Consume the admission-queue wait unconditionally: it belongs to
  // this request whether or not the log is armed (a later request on
  // this keep-alive connection must not inherit it).
  uint64_t QueueNs = AccessLog::takeQueueNs();
  if (AccessLog::enabled()) {
    AccessRecord A;
    A.Id = std::move(Id);       // last use of either: the response header
    A.Route = std::move(Route); // and the ring summary hold their own copies
    A.Status = R.Status;
    A.BytesIn = Req.Body.size();
    A.BytesOut = R.Body.size();
    A.WallNs = WallNs;
    A.QueueNs = QueueNs;
    A.AnalyzeNs = T.AnalyzeNs;
    A.Analyses = T.Analyses;
    A.ReferencePairs = T.Delta.ReferencePairs;
    A.IndependentPairs = T.Delta.IndependentPairs;
    A.DegradedResults = T.Delta.DegradedResults;
    A.BatchedZIV = T.Delta.BatchedZIV;
    A.BatchedStrongSIV = T.Delta.BatchedStrongSIV;
    A.ScalarFallback = T.Delta.ScalarFallback;
    A.StoreHits = T.Delta.StoreHits;
    A.StoreMisses = T.Delta.StoreMisses;
    AccessLog::append(A);
  }
  return R;
}

HttpResponse Service::route(const HttpRequest &Req, RouteTelemetry &T) {
  // Query strings are accepted and ignored (documented).
  std::string Path = Req.Target.substr(0, Req.Target.find('?'));

  bool IsAnalysis = Path == "/v1/analyze" || Path == "/v1/batch";
  bool Known = Path == "/healthz" || Path == "/v1/version" ||
               Path == "/v1/stats" || Path == "/v1/corpus" ||
               Path == "/v1/metricz" || Path == "/v1/debug/flight" ||
               Path == "/v1/debug/requests" || IsAnalysis;
  if (!Known)
    return errorResponse(404, "unknown endpoint \"" + Path + "\"");

  const char *Allowed = IsAnalysis ? "POST" : "GET";
  if (Req.Method != Allowed) {
    HttpResponse R = errorResponse(
        405, "method " + Req.Method + " not allowed for " + Path);
    R.Headers.push_back({"Allow", Allowed});
    return R;
  }

  if (Path == "/healthz") {
    std::string Body = "{\"status\":\"ok\",\"draining\":";
    Body += draining() ? "true" : "false";
    Body += "}\n";
    return jsonResponse(200, std::move(Body));
  }

  if (Path == "/v1/version") {
    std::string Body = "{\"schema\":\"pdt-serve-version-v1\",\"build\":";
    Body += buildInfoJson();
    Body += "}\n";
    return jsonResponse(200, std::move(Body));
  }

  if (Path == "/v1/stats") {
    ServiceCounters C = counters();
    std::string Body = "{\"schema\":\"pdt-serve-stats-v1\",\"draining\":";
    Body += draining() ? "true" : "false";
    Body += ",\"requests\":{\"total\":" + std::to_string(C.Requests);
    Body += ",\"ok\":" + std::to_string(C.Ok);
    Body += ",\"client_errors\":" + std::to_string(C.ClientErrors);
    Body += ",\"server_errors\":" + std::to_string(C.ServerErrors);
    Body += "},\"analysis\":{\"analyses\":" + std::to_string(C.Analyses);
    Body += ",\"parse_failures\":" + std::to_string(C.ParseFailures);
    Body += ",\"reference_pairs\":" + std::to_string(C.ReferencePairs);
    Body += ",\"proven_independent\":" + std::to_string(C.IndependentPairs);
    Body += ",\"degraded\":" + std::to_string(C.DegradedResults);
    Body += ",\"edges\":" + std::to_string(C.EdgesEmitted);
    Body += "}}\n";
    return jsonResponse(200, std::move(Body));
  }

  if (Path == "/v1/corpus") {
    const std::vector<CorpusKernel> &Kernels = corpus();
    std::string Body = "{\"schema\":\"pdt-serve-corpus-v1\",\"kernels\":[";
    for (size_t I = 0; I != Kernels.size(); ++I) {
      if (I)
        Body += ',';
      Body += "{\"name\":" + quoted(Kernels[I].Name);
      Body += ",\"suite\":" + quoted(Kernels[I].Suite);
      Body += '}';
    }
    Body += "]}\n";
    return jsonResponse(200, std::move(Body));
  }

  // Observability endpoints. Deliberately not gated on draining: an
  // operator watching a drain needs them most.
  if (Path == "/v1/metricz") {
    // Zeros when metrics are disarmed — a scraper should see the
    // series exist either way, not flap between 200 and 404.
    HttpResponse R;
    R.Status = 200;
    R.Headers.push_back(
        {"Content-Type", "text/plain; version=0.0.4; charset=utf-8"});
    R.Body = Metrics::toPrometheus(Metrics::snapshot());
    return R;
  }

  if (Path == "/v1/debug/flight") {
    if (!FlightRecorder::enabled())
      return errorResponse(
          404, "flight recorder is not armed (set PDT_FLIGHT=on)");
    return jsonResponse(200, FlightRecorder::toJson("serve-debug"));
  }

  if (Path == "/v1/debug/requests") {
    std::vector<RequestSummary> Requests = recentRequests();
    std::string Body =
        "{\"schema\":\"pdt-serve-requests-v1\",\"capacity\":" +
        std::to_string(DebugRingCapacity) + ",\"requests\":[";
    for (size_t I = 0; I != Requests.size(); ++I) {
      const RequestSummary &S = Requests[I];
      if (I)
        Body += ',';
      Body += "{\"id\":" + quoted(S.Id);
      Body += ",\"route\":" + quoted(S.Route);
      // Status 0 = still being routed (this request reports itself as
      // in flight).
      Body += ",\"in_flight\":";
      Body += S.Status == 0 ? "true" : "false";
      Body += ",\"status\":" + std::to_string(S.Status);
      Body += ",\"wall_ns\":" + std::to_string(S.WallNs);
      Body += ",\"analyze_ns\":" + std::to_string(S.AnalyzeNs);
      Body += ",\"analyses\":" + std::to_string(S.Analyses);
      Body += ",\"stats\":{\"reference_pairs\":" +
              std::to_string(S.ReferencePairs);
      Body += ",\"proven_independent\":" + std::to_string(S.IndependentPairs);
      Body += ",\"degraded\":" + std::to_string(S.DegradedResults);
      Body += "}}";
    }
    Body += "]}\n";
    return jsonResponse(200, std::move(Body));
  }

  // Analysis endpoints from here on.
  if (draining())
    return errorResponse(503, "server is draining; retry against another "
                              "instance");

  std::string JsonError;
  std::optional<json::Value> Doc = json::parse(Req.Body, &JsonError);
  if (!Doc) {
    EventLog::event(EventSeverity::Warn, "serve", "malformed-request",
                    JsonError);
    return errorResponse(400, "request body is not valid JSON: " + JsonError);
  }

  bool Batch = Path == "/v1/batch";
  AnalyzeSpec Spec;
  std::string SpecError;
  if (!parseSpec(*Doc, Batch, Limits, Spec, SpecError)) {
    EventLog::event(EventSeverity::Warn, "serve", "malformed-request",
                    SpecError);
    return errorResponse(400, SpecError);
  }

  // Parse and analyze every kernel in order on this connection worker:
  // request parallelism comes from the server's worker threads.
  size_t N = Spec.Kernels.size();
  std::vector<AnalysisResult> Results(N);
  int64_t AnalyzeT0 = Trace::nowNs();
  for (size_t I = 0; I != N; ++I) {
    const KernelSpec &K = Spec.Kernels[I];
    if (!K.Error.empty())
      continue; // corpus-name resolution failed; rendered below
    Results[I] = analyzeSource(K.Source, K.Name, Spec.Options);
  }
  T.AnalyzeNs = static_cast<uint64_t>(Trace::nowNs() - AnalyzeT0);

  // Fold stats (global counters and this request's telemetry delta)
  // and render.
  uint64_t AnalyzedHere = 0;
  for (size_t I = 0; I != N; ++I) {
    if (!Spec.Kernels[I].Error.empty() || !Results[I].Parsed)
      continue;
    ++AnalyzedHere;
    T.Delta.merge(Results[I].Stats);
    CRefPairs.fetch_add(Results[I].Stats.ReferencePairs,
                        std::memory_order_relaxed);
    CIndependent.fetch_add(Results[I].Stats.IndependentPairs,
                           std::memory_order_relaxed);
    CDegraded.fetch_add(Results[I].Stats.DegradedResults,
                        std::memory_order_relaxed);
    CEdges.fetch_add(Results[I].Graph.dependences().size(),
                     std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Stats->Mutex);
    Stats->Stats.merge(Results[I].Stats);
  }
  T.Analyses = AnalyzedHere;
  CAnalyses.fetch_add(AnalyzedHere, std::memory_order_relaxed);
  Metrics::count(Metric::ServeAnalyses, AnalyzedHere);

  if (!Batch) {
    const KernelSpec &K = Spec.Kernels[0];
    if (!K.Error.empty())
      return jsonResponse(404, renderResolutionFailure(K) + "\n");
    if (!Results[0].Parsed) {
      CParseFailures.fetch_add(1, std::memory_order_relaxed);
      EventLog::event(EventSeverity::Warn, "serve", "unparseable-kernel",
                      K.Name);
      return jsonResponse(422,
                          renderParseFailure(K, Results[0].Diagnostics) + "\n");
    }
    return jsonResponse(200, renderResult(K, Results[0], Spec) + "\n");
  }

  std::string Body = "{\"schema\":\"pdt-serve-batch-v1\",\"results\":[";
  for (size_t I = 0; I != N; ++I) {
    if (I)
      Body += ',';
    const KernelSpec &K = Spec.Kernels[I];
    if (!K.Error.empty()) {
      Body += renderResolutionFailure(K);
    } else if (!Results[I].Parsed) {
      CParseFailures.fetch_add(1, std::memory_order_relaxed);
      Body += renderParseFailure(K, Results[I].Diagnostics);
    } else {
      Body += renderResult(K, Results[I], Spec);
    }
  }
  Body += "]}\n";
  return jsonResponse(200, std::move(Body));
}
