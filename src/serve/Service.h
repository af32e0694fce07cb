//===- serve/Service.h - Request routing for depserved ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The REST surface of depserved, separated from the socket layer so
/// it is a pure, thread-safe function from HttpRequest to
/// HttpResponse. Every endpoint, request/response schema, and status
/// code here is documented in docs/SERVING.md — the serving tests
/// cross-check the two, so keep them in lockstep.
///
/// Endpoints (the canonical list; serve::allEndpoints() mirrors it):
///   GET  /healthz          liveness + drain state
///   GET  /v1/version       build provenance
///   GET  /v1/stats         server counters (pdt-serve-stats-v1)
///   GET  /v1/corpus        built-in kernel listing
///   GET  /v1/metricz       Prometheus text exposition of the Metrics
///                          registry (counters, gauges, histogram
///                          buckets)
///   GET  /v1/debug/flight  on-demand flight-recorder snapshot
///                          (Chrome-trace JSON; 404 when not armed)
///   GET  /v1/debug/requests last-N in-flight/completed request
///                          summaries (pdt-serve-requests-v1)
///   POST /v1/analyze       analyze one kernel (pdt-serve-v1)
///   POST /v1/batch         analyze many kernels (pdt-serve-batch-v1)
///
/// Request identity: every request adopts the client's
/// X-PDT-Request-Id (validated: 1..64 chars of [A-Za-z0-9._-]) or
/// mints one from the process-wide sequence ("pdt-<n>"). The ID is
/// echoed in the X-PDT-Request-Id response header of every response,
/// stamped into error bodies as "request_id", propagated through the
/// RequestContext scope into spans / journal lines / flight slots,
/// and written to the access log (serve/AccessLog.h) as the line's
/// "id".
///
/// An analysis request parses and analyzes its kernels in order on
/// the connection worker that routes it, each graph build serial on
/// that thread: request parallelism comes from the server's worker
/// threads. Per-request resource budgets reuse
/// AnalyzerOptions::Budget: the request may lower, but never raise,
/// the server's deadline and pair caps.
///
/// Determinism contract: for a fixed service configuration, the
/// response body for an analysis request is a pure function of the
/// request bytes — no timestamps, no counters, no scheduling artifacts
/// — so concurrent clients issuing the same request receive
/// byte-identical payloads (the serving tests enforce this). Request
/// IDs respect the contract: a successful analysis body never contains
/// the ID (only the response header does); error bodies, which are
/// diagnostics rather than analysis results, do carry "request_id".
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SERVE_SERVICE_H
#define PDT_SERVE_SERVICE_H

#include "core/TestStats.h"
#include "serve/Http.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pdt {
namespace serve {

/// Server-side caps a request cannot exceed. Zero means unlimited.
struct ServiceLimits {
  /// Default and maximum per-request wall-clock budget
  /// (AnalyzerOptions::Budget.Deadline). A request's "budget_ms" is
  /// clamped to this.
  uint64_t DeadlineMs = 2000;
  /// Default and maximum per-request pair cap
  /// (AnalyzerOptions::Budget.MaxPairs).
  uint64_t MaxPairs = 1000000;
  /// Kernels accepted in one /v1/batch request.
  uint64_t MaxBatchKernels = 256;
};

/// Monotonic counters for /v1/stats. Mirrored into the Metrics
/// registry (serve.*) by the socket layer; these exist so the
/// endpoint works even when metrics are disarmed.
struct ServiceCounters {
  uint64_t Requests = 0;     ///< Requests routed (all endpoints).
  uint64_t Ok = 0;           ///< 2xx responses.
  uint64_t ClientErrors = 0; ///< 4xx responses.
  uint64_t ServerErrors = 0; ///< 5xx responses.
  uint64_t Analyses = 0;     ///< Kernels analyzed to completion.
  uint64_t ParseFailures = 0; ///< Kernels rejected as unparseable (422).
  uint64_t ReferencePairs = 0;
  uint64_t IndependentPairs = 0;
  uint64_t DegradedResults = 0;
  uint64_t EdgesEmitted = 0;
};

/// One finished (or still running) request as /v1/debug/requests
/// reports it. WallNs is 0 while the request is in flight.
struct RequestSummary {
  std::string Id;
  std::string Route; ///< "METHOD /path".
  int Status = 0;
  uint64_t WallNs = 0;
  uint64_t AnalyzeNs = 0;
  uint64_t Analyses = 0;
  uint64_t ReferencePairs = 0;
  uint64_t IndependentPairs = 0;
  uint64_t DegradedResults = 0;
};

class Service {
public:
  /// Completed-request summaries kept for /v1/debug/requests.
  static constexpr size_t DebugRingCapacity = 64;

  explicit Service(ServiceLimits Limits = {});

  /// Routes one request. Thread-safe; any number of server workers
  /// may call concurrently. Never throws: internal errors become 500
  /// responses.
  HttpResponse handle(const HttpRequest &Req);

  /// While draining, analysis endpoints answer 503 (health stays 200
  /// so orchestrators can watch the drain).
  void setDraining(bool D) { Draining.store(D, std::memory_order_relaxed); }
  bool draining() const { return Draining.load(std::memory_order_relaxed); }

  const ServiceLimits &limits() const { return Limits; }
  ServiceCounters counters() const;

  /// Accumulated TestStats over every analysis served, for the
  /// RunReport the daemon writes at exit.
  TestStats accumulatedStats() const;

  /// The /v1/debug/requests view: requests still being routed, then
  /// the last-N completed ones, oldest first. Exposed for tests.
  std::vector<RequestSummary> recentRequests() const;

  /// ServiceLimits from PDT_SERVE_DEADLINE_MS and PDT_SERVE_MAX_PAIRS
  /// (hardened parsing, documented defaults).
  static ServiceLimits limitsFromEnvironment();

private:
  struct Impl;
  /// Per-request numbers route() reports back to handle() so the
  /// access line and debug ring can carry them (defined in the .cpp).
  struct RouteTelemetry;
  HttpResponse route(const HttpRequest &Req, RouteTelemetry &T);

  ServiceLimits Limits;
  std::atomic<bool> Draining{false};
  // Counter cells; plain relaxed increments (exact totals matter, order
  // does not).
  std::atomic<uint64_t> CRequests{0}, COk{0}, CClient{0}, CServer{0},
      CAnalyses{0}, CParseFailures{0}, CRefPairs{0}, CIndependent{0},
      CDegraded{0}, CEdges{0};
  /// Guarded accumulated TestStats (merged per analysis).
  struct StatsCell;
  std::shared_ptr<StatsCell> Stats;
  /// In-flight list + completed ring for /v1/debug/requests.
  struct DebugRing;
  std::shared_ptr<DebugRing> Ring;
};

/// The uniform error body {"error":"<code>","detail":"<text>"} with
/// the canonical code for \p Status, Content-Type set. Shared by the
/// router and the socket layer so every failure path speaks the same
/// schema.
HttpResponse errorResponse(int Status, const std::string &Detail);

/// The canonical endpoint table ("METHOD PATH" strings) — the serving
/// tests assert docs/SERVING.md documents every entry.
const std::vector<std::string> &allEndpoints();

/// Every HTTP status depserved can emit — likewise cross-checked
/// against docs/SERVING.md.
const std::vector<int> &allStatusCodes();

/// Every PDT_SERVE_* environment knob (serve layer only) — likewise
/// cross-checked against docs/SERVING.md and the README env table.
const std::vector<std::string> &allEnvKnobs();

} // namespace serve
} // namespace pdt

#endif // PDT_SERVE_SERVICE_H
