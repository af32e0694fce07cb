//===- bench/bench_x10_serve.cpp ------------------------------------------===//
//
// Experiment X10: the serving contract under load. An in-process
// depserved (real sockets, real workers — only the process boundary is
// elided) is driven through four phases by the serve::Client:
//
//   * warmup:     prime every corpus kernel once and capture the
//                 expected response bytes — the determinism oracle for
//                 the load phase;
//   * throughput: N client threads hammer keep-alive connections with
//                 a corpus-analysis mix, timing every request into a
//                 client-side log2 histogram (the same bucketing as
//                 latency.serve_request_ns, so client- and server-side
//                 percentiles are directly comparable). Every response
//                 must be 200 and byte-identical to the warmup oracle.
//   * saturation: a one-worker zero-queue server with its only worker
//                 pinned by an idle keep-alive connection must answer
//                 every further connection 429 + Retry-After, then
//                 recover to 200 the moment the pin closes;
//   * drain:      requestDrain() mid-keep-alive must finish in-flight
//                 work, refuse new connections, and join cleanly.
//
// Correctness gates are deterministic (statuses, byte-identity, 429
// taxonomy, post-drain refusal); the timing numbers are reported, not
// asserted — on a loaded CI box latency is noise, but the percentile
// *pipeline* (client histogram vs server histogram counts) is still
// checked exactly.
//
// Writes BENCH_serve.json plus a pdt-report-v1 companion
// (BENCH_serve_report.json) whose p50/p99/max ride along as *_ns
// workload values; the depprof_serve_history ctest appends the latter
// to the perf ledger. Run with --smoke for the sub-second workload.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "driver/RunReport.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace pdt;
using namespace pdt::serve;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Client-side latency histogram: the exact bucketing of
/// Metrics::observeImpl (bucket = bit_width(ns), clamped), so
/// quantileNs() on this and on the server's latency.serve_request_ns
/// speak the same units and the two views are directly comparable.
void record(MetricsSnapshot::Histogram &H, uint64_t Ns) {
  H.Count += 1;
  H.SumNs += Ns;
  H.MaxNs = std::max(H.MaxNs, Ns);
  unsigned Bucket = std::bit_width(Ns);
  if (Bucket >= HistoBuckets)
    Bucket = HistoBuckets - 1;
  H.Buckets[Bucket] += 1;
}

/// The analysis mix: small corpus kernels with distinct dependence
/// shapes, so the oracle map exercises distinct response bodies.
const std::vector<std::string> &corpusMix() {
  static const std::vector<std::string> Mix = {"daxpy", "daxpy_stride",
                                               "dscal", "ddot"};
  return Mix;
}

std::string analyzeBody(const std::string &Kernel) {
  return "{\"corpus\":\"" + Kernel + "\"}";
}

struct ThreadOutcome {
  MetricsSnapshot::Histogram Latency;
  uint64_t Ok = 0;
  uint64_t BadStatus = 0;
  uint64_t Mismatches = 0; ///< Responses differing from the oracle.
  uint64_t TransportErrors = 0;
};

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  unsigned ClientThreads = 4;
  unsigned RequestsPerThread = 250;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--clients") && I + 1 != argc)
      ClientThreads = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--requests") && I + 1 != argc)
      RequestsPerThread = std::strtoul(argv[++I], nullptr, 10);
    else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--clients N] [--requests N]\n";
      return 2;
    }
  }
  if (Smoke) {
    ClientThreads = 2;
    RequestsPerThread = 25;
  }
  unsigned Failures = 0;
  auto Fail = [&](const std::string &Why) {
    ++Failures;
    std::cerr << "FAIL: " << Why << "\n";
  };

  if (!Metrics::enabled())
    Metrics::enable();

  //===--------------------------------------------------------------------===//
  // Phase 1+2: warmup oracle, then the throughput load.
  //===--------------------------------------------------------------------===//

  ServerConfig Cfg;
  Cfg.Port = 0; // ephemeral
  Cfg.Threads = ClientThreads;
  Cfg.QueueCapacity = 16;
  Service Svc;
  Server Daemon(Cfg, Svc);
  std::string Error;
  if (!Daemon.start(&Error)) {
    std::cerr << "cannot start server: " << Error << "\n";
    return 1;
  }

  // Warmup: one pass over the mix captures the oracle bytes; the
  // determinism contract says every later response must match them.
  std::map<std::string, std::string> Oracle;
  {
    Client Warm;
    if (!Warm.connectTo(Daemon.port(), &Error)) {
      std::cerr << "warmup connect failed: " << Error << "\n";
      return 1;
    }
    for (const std::string &Kernel : corpusMix()) {
      ClientResponse R;
      if (!Warm.post("/v1/analyze", analyzeBody(Kernel), R, &Error) ||
          R.Status != 200) {
        std::cerr << "warmup request for " << Kernel << " failed\n";
        return 1;
      }
      Oracle[Kernel] = R.Body;
    }
  }

  std::vector<ThreadOutcome> Outcomes(ClientThreads);
  uint64_t LoadStartNs = nowNs();
  {
    std::vector<std::thread> Threads;
    Threads.reserve(ClientThreads);
    for (unsigned T = 0; T != ClientThreads; ++T)
      Threads.emplace_back([&, T] {
        ThreadOutcome &Out = Outcomes[T];
        Client C;
        if (!C.connectTo(Daemon.port())) {
          Out.TransportErrors += RequestsPerThread;
          return;
        }
        for (unsigned I = 0; I != RequestsPerThread; ++I) {
          // Mostly analysis; every 8th request a healthz probe so the
          // mix touches a non-analysis route too.
          bool Health = I % 8 == 7;
          const std::string &Kernel =
              corpusMix()[(T + I) % corpusMix().size()];
          ClientResponse R;
          uint64_t T0 = nowNs();
          bool Sent = Health ? C.get("/healthz", R)
                             : C.post("/v1/analyze", analyzeBody(Kernel), R);
          uint64_t T1 = nowNs();
          if (!Sent) {
            ++Out.TransportErrors;
            // One reconnect attempt keeps a transient close from
            // cascading into a whole thread of failures.
            if (!C.connectTo(Daemon.port()))
              return;
            continue;
          }
          record(Out.Latency, T1 - T0);
          if (R.Status != 200) {
            ++Out.BadStatus;
            continue;
          }
          ++Out.Ok;
          if (!Health && R.Body != Oracle[Kernel])
            ++Out.Mismatches;
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  uint64_t LoadNs = nowNs() - LoadStartNs;

  ThreadOutcome Total;
  for (const ThreadOutcome &O : Outcomes) {
    Total.Latency.merge(O.Latency);
    Total.Ok += O.Ok;
    Total.BadStatus += O.BadStatus;
    Total.Mismatches += O.Mismatches;
    Total.TransportErrors += O.TransportErrors;
  }
  uint64_t WantRequests = uint64_t(ClientThreads) * RequestsPerThread;
  if (Total.BadStatus != 0)
    Fail(std::to_string(Total.BadStatus) + " non-200 responses under load");
  if (Total.Mismatches != 0)
    Fail(std::to_string(Total.Mismatches) +
         " responses differed from the warmup oracle (determinism "
         "contract violated)");
  if (Total.TransportErrors != 0)
    Fail(std::to_string(Total.TransportErrors) + " transport errors");
  if (Total.Ok != WantRequests)
    Fail("served " + std::to_string(Total.Ok) + " of " +
         std::to_string(WantRequests) + " requests");

  // The server-side view of the same traffic. Counts are exact: the
  // serve histogram must have timed every request the load phase (plus
  // warmup) pushed through, and the percentile pipeline on both sides
  // runs over identical bucket semantics.
  double ServerP50 = 0, ServerP99 = 0;
  uint64_t ServerCount = 0;
  MetricsSnapshot Snap = Metrics::snapshot();
  const MetricsSnapshot::Histogram &H = Snap.histogram(Histo::ServeRequestNs);
  ServerCount = H.Count;
  ServerP50 = H.quantileNs(0.5);
  ServerP99 = H.quantileNs(0.99);
  uint64_t WantTimed = WantRequests + corpusMix().size();
  if (H.Count < WantTimed)
    Fail("server histogram timed " + std::to_string(H.Count) + " of " +
         std::to_string(WantTimed) + " requests");
  if (Snap.counter(Metric::ServeAnalyses) == 0)
    Fail("serve.analyses never incremented under load");

  ServiceCounters Counters = Svc.counters();
  TestStats Accumulated = Svc.accumulatedStats();
  Daemon.requestDrain();
  Daemon.waitDrained();

  //===--------------------------------------------------------------------===//
  // Phase 3: saturation. One worker, zero queue, worker pinned by an
  // idle keep-alive connection — admission control must answer every
  // further connection 429 + Retry-After, then recover.
  //===--------------------------------------------------------------------===//

  uint64_t Seen429 = 0, SeenRetryAfter = 0;
  bool RecoveredAfterPin = false;
  {
    ServerConfig Tiny;
    Tiny.Port = 0;
    Tiny.Threads = 1;
    Tiny.QueueCapacity = 0;
    Service TinySvc;
    Server TinyDaemon(Tiny, TinySvc);
    if (!TinyDaemon.start(&Error)) {
      std::cerr << "cannot start saturation server: " << Error << "\n";
      return 1;
    }
    Client Pin;
    ClientResponse R;
    if (!Pin.connectTo(TinyDaemon.port()) || !Pin.get("/healthz", R) ||
        R.Status != 200)
      Fail("saturation pin connection did not get its first 200");
    unsigned Attempts = Smoke ? 4 : 16;
    for (unsigned I = 0; I != Attempts; ++I) {
      // The 429 is written at accept time, before any request bytes:
      // connect and read only.
      Client Rejected;
      ClientResponse RR;
      if (!Rejected.connectTo(TinyDaemon.port()) ||
          !Rejected.readResponse(RR))
        continue;
      if (RR.Status == 429) {
        ++Seen429;
        if (RR.header("Retry-After"))
          ++SeenRetryAfter;
      }
    }
    Pin.close();
    // The worker frees up within one 100ms poll slice; retry briefly.
    for (unsigned I = 0; I != 50 && !RecoveredAfterPin; ++I) {
      Client Again;
      ClientResponse AR;
      if (Again.connectTo(TinyDaemon.port()) && Again.get("/healthz", AR) &&
          AR.Status == 200)
        RecoveredAfterPin = true;
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (Seen429 == 0)
      Fail("saturated server never answered 429");
    if (SeenRetryAfter != Seen429)
      Fail("a 429 was missing its Retry-After header");
    if (!RecoveredAfterPin)
      Fail("server did not recover once the pinned connection closed");
    TinyDaemon.requestDrain();
    TinyDaemon.waitDrained();
  }

  //===--------------------------------------------------------------------===//
  // Phase 4: graceful drain under an open keep-alive connection.
  //===--------------------------------------------------------------------===//

  uint64_t DrainNs = 0;
  bool RefusedAfterDrain = false;
  {
    ServerConfig DCfg;
    DCfg.Port = 0;
    DCfg.Threads = 2;
    DCfg.QueueCapacity = 8;
    Service DSvc;
    Server DDaemon(DCfg, DSvc);
    if (!DDaemon.start(&Error)) {
      std::cerr << "cannot start drain server: " << Error << "\n";
      return 1;
    }
    Client KeepAlive;
    ClientResponse R;
    if (!KeepAlive.connectTo(DDaemon.port()) ||
        !KeepAlive.post("/v1/analyze", analyzeBody("daxpy"), R) ||
        R.Status != 200)
      Fail("drain-phase keep-alive request failed");
    uint64_t T0 = nowNs();
    DDaemon.requestDrain();
    DDaemon.waitDrained();
    DrainNs = nowNs() - T0;
    Client After;
    RefusedAfterDrain = !After.connectTo(DDaemon.port());
    if (!RefusedAfterDrain)
      Fail("drained server still accepts connections");
  }

  //===--------------------------------------------------------------------===//
  // Report.
  //===--------------------------------------------------------------------===//

  double P50 = Total.Latency.quantileNs(0.5);
  double P99 = Total.Latency.quantileNs(0.99);
  double Rps = LoadNs ? double(Total.Ok) * 1e9 / double(LoadNs) : 0.0;
  std::printf("x10 serve: %llu requests on %u clients, %.0f req/s, "
              "client p50 %.1f us p99 %.1f us (server p50 %.1f us "
              "p99 %.1f us over %llu timed), %llu x 429, drain %.1f ms "
              "— %s\n",
              static_cast<unsigned long long>(Total.Ok), ClientThreads, Rps,
              P50 / 1e3, P99 / 1e3, ServerP50 / 1e3, ServerP99 / 1e3,
              static_cast<unsigned long long>(ServerCount),
              static_cast<unsigned long long>(Seen429), DrainNs / 1e6,
              Failures ? "FAILURES" : "all checks passed");

  std::ofstream Json(benchOutputPath("BENCH_serve.json"));
  Json << "{\n"
       << benchMetaJson("x10_serve") << ",\n"
       << "  \"workload\": {\"clients\": " << ClientThreads
       << ", \"requests_per_client\": " << RequestsPerThread
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"throughput\": {\"ok\": " << Total.Ok
       << ", \"bad_status\": " << Total.BadStatus
       << ", \"oracle_mismatches\": " << Total.Mismatches
       << ", \"transport_errors\": " << Total.TransportErrors
       << ", \"requests_per_sec\": " << Rps << "},\n"
       << "  \"latency_client_ns\": {\"p50\": " << P50 << ", \"p99\": " << P99
       << ", \"max\": " << Total.Latency.MaxNs
       << ", \"count\": " << Total.Latency.Count << "},\n"
       << "  \"latency_server_ns\": {\"p50\": " << ServerP50
       << ", \"p99\": " << ServerP99 << ", \"count\": " << ServerCount
       << "},\n"
       << "  \"service\": {\"requests\": " << Counters.Requests
       << ", \"ok\": " << Counters.Ok
       << ", \"analyses\": " << Counters.Analyses
       << ", \"reference_pairs\": " << Counters.ReferencePairs
       << ", \"edges\": " << Counters.EdgesEmitted << "},\n"
       << "  \"saturation\": {\"rejected_429\": " << Seen429
       << ", \"retry_after_present\": " << SeenRetryAfter
       << ", \"recovered\": " << (RecoveredAfterPin ? "true" : "false")
       << "},\n"
       << "  \"drain\": {\"wall_ns\": " << DrainNs
       << ", \"refused_after\": " << (RefusedAfterDrain ? "true" : "false")
       << "},\n"
       << "  \"failures\": " << Failures << "\n"
       << "}\n";

  // The pdt-report-v1 companion for the perf ledger: percentiles ride
  // along as *_ns workload values (Time-class keys — gated by the
  // noise band, never hard-failed) on top of the served workload's
  // deterministic stats.
  RunReport::reset();
  RunReport::noteTool("bench_x10_serve");
  RunReport::noteWorkload("mode", "serve");
  RunReport::noteWorkload("config", Smoke ? "smoke" : "full");
  RunReport::noteWorkload("clients", static_cast<uint64_t>(ClientThreads));
  RunReport::noteWorkload("requests", Total.Ok);
  RunReport::noteWorkload("p50_wall_ns", static_cast<uint64_t>(P50));
  RunReport::noteWorkload("p99_wall_ns", static_cast<uint64_t>(P99));
  RunReport::noteWorkload("max_wall_ns", Total.Latency.MaxNs);
  RunReport::noteStats(Accumulated);
  RunReport::noteWallNs(static_cast<int64_t>(LoadNs));
  if (!RunReport::writeTo(benchOutputPath("BENCH_serve_report.json")))
    Fail("cannot write BENCH_serve_report.json");

  return Failures ? 1 : 0;
}
