//===- bench/bench_x11_reqobs.cpp -----------------------------------------===//
//
// Experiment X11: the per-request observability contract under load.
// An in-process depserved serves the identical keep-alive workload
// twice — access log disarmed, then armed — and the bench gates on:
//
//   * byte identity: every armed response body must be byte-identical
//     to its disarmed twin (the request ID travels in the header, so
//     arming observability cannot perturb a single body byte);
//   * identity echo: every response must echo the client-supplied
//     X-PDT-Request-Id;
//   * exact accounting: armed, the pdt-access-v1 log must hold exactly
//     one line per answered request — cross-checked against the
//     client's count, the service's counters, and each line's ID;
//   * saturation accounting: on a one-worker zero-queue server whose
//     worker is pinned, every accept-time 429 must land in the log
//     too (lines with status 429 == the server's own Rejected429
//     counter — the accounting survives load shedding);
//   * overhead: armed per-request wall time must stay within 5% of
//     disarmed. Measured over alternating single-client disarmed/armed
//     leg pairs on a heavy kernel mix; per-request wall times are
//     pooled across legs per config and compared at the 10th
//     percentile, so scheduler preemption and writeback stalls on
//     small machines cannot masquerade as logging cost (asserted in
//     the full, non-smoke invocation only; timing is reported in
//     both).
//
// Writes BENCH_reqobs.json plus two pdt-report-v1 companions
// (BENCH_reqobs_disarmed.json / BENCH_reqobs_armed.json) over the
// identical workload: the depprof_reqobs_diff ctest replays the pair
// through the report differ (deterministic keys must match exactly;
// the *_ns keys ride the noise band), and depprof_reqobs_history
// appends the armed report to the perf ledger. Run with --smoke for
// the sub-second workload.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "driver/RunReport.h"
#include "serve/AccessLog.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pdt;
using namespace pdt::serve;

namespace {

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Client-side latency histogram with the Metrics::observeImpl
/// bucketing, so quantileNs() applies.
void record(MetricsSnapshot::Histogram &H, uint64_t Ns) {
  H.Count += 1;
  H.SumNs += Ns;
  H.MaxNs = std::max(H.MaxNs, Ns);
  unsigned Bucket = std::bit_width(Ns);
  if (Bucket >= HistoBuckets)
    Bucket = HistoBuckets - 1;
  H.Buckets[Bucket] += 1;
}

const std::vector<std::string> &corpusMix() {
  static const std::vector<std::string> Mix = {"daxpy", "daxpy_stride",
                                               "dscal", "ddot"};
  return Mix;
}

/// The overhead legs serve heavier, realistic analyses: the access
/// line is a fixed per-request cost, so gating its relative overhead
/// against the cheapest kernels in the corpus would measure the
/// workload, not the log.
const std::vector<std::string> &heavyMix() {
  static const std::vector<std::string> Mix = {"reduc_chol", "hqr2_backsub",
                                               "hqr_row", "tred2_sym"};
  return Mix;
}

std::string analyzeBody(const std::string &Kernel) {
  return "{\"corpus\":\"" + Kernel + "\"}";
}

/// The deterministic per-request ID both phases send, so the two wire
/// streams are byte-identical and the overhead delta isolates the
/// access log itself.
std::string requestId(unsigned Thread, unsigned Index) {
  return "x11-t" + std::to_string(Thread) + "-r" + std::to_string(Index);
}

struct PhaseOutcome {
  MetricsSnapshot::Histogram Latency;
  std::vector<uint64_t> SampleNs; ///< Exact per-request wall times.
  uint64_t Ok = 0;
  uint64_t BadStatus = 0;
  uint64_t EchoMisses = 0;  ///< Responses not echoing the sent ID.
  uint64_t Mismatches = 0;  ///< Bodies differing from the oracle.
  uint64_t TransportErrors = 0;
  uint64_t WallNs = 0;
  TestStats Accumulated;
  ServiceCounters Counters;
};

struct AccessLine {
  std::string Id;
  std::string Route;
  uint64_t Status = 0;
  uint64_t ReferencePairs = 0;
};

/// The body lines of a pdt-access-v1 file (header skipped; malformed
/// lines counted so the caller can gate on zero).
std::vector<AccessLine> loadAccessLines(const std::string &Path,
                                        uint64_t &Malformed) {
  std::vector<AccessLine> Out;
  std::ifstream File(Path);
  std::string Line;
  bool First = true;
  while (std::getline(File, Line)) {
    if (Line.empty())
      continue;
    std::optional<json::Value> V = json::parse(Line);
    if (!V) {
      ++Malformed;
      continue;
    }
    if (First) {
      First = false;
      if (V->stringAt("schema").value_or("") != "pdt-access-v1")
        ++Malformed;
      continue;
    }
    AccessLine L;
    L.Id = V->stringAt("id").value_or("");
    L.Route = V->stringAt("route").value_or("");
    L.Status = V->uintAt("status").value_or(0);
    if (const json::Value *Stats = V->find("stats"))
      L.ReferencePairs = Stats->uintAt("reference_pairs").value_or(0);
    Out.push_back(std::move(L));
  }
  return Out;
}

/// One full load phase against a fresh server: \p Clients threads,
/// \p PerClient requests each over keep-alive connections, every
/// request carrying a deterministic X-PDT-Request-Id. Bodies are
/// checked against \p Oracle (filled on the first phase).
PhaseOutcome runLoadPhase(unsigned Clients, unsigned PerClient,
                          std::map<std::string, std::string> &Oracle,
                          bool FillOracle, std::string *FatalError,
                          const std::vector<std::string> &Mix = corpusMix(),
                          bool Healthz = true) {
  PhaseOutcome Out;
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Threads = Clients;
  Cfg.QueueCapacity = 16;
  Service Svc;
  Server Daemon(Cfg, Svc);
  std::string Error;
  if (!Daemon.start(&Error)) {
    *FatalError = "cannot start server: " + Error;
    return Out;
  }

  // Warmup primes the analyzer and (on the first phase) captures the
  // oracle bytes — outside the timed window and outside the armed
  // accounting (the access log is armed by the caller after warmup
  // would complete... it is armed for the whole server lifetime, so
  // warmup lines are accounted for via the service counters instead).
  {
    Client Warm;
    if (!Warm.connectTo(Daemon.port(), &Error)) {
      *FatalError = "warmup connect failed: " + Error;
      return Out;
    }
    for (const std::string &Kernel : Mix) {
      ClientResponse R;
      if (!Warm.post("/v1/analyze", analyzeBody(Kernel), R, &Error) ||
          R.Status != 200) {
        *FatalError = "warmup request for " + Kernel + " failed";
        return Out;
      }
      if (FillOracle)
        Oracle[Kernel] = R.Body;
      else if (R.Body != Oracle[Kernel])
        ++Out.Mismatches;
    }
  }

  std::vector<PhaseOutcome> PerThread(Clients);
  uint64_t T0 = nowNs();
  {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned T = 0; T != Clients; ++T)
      Threads.emplace_back([&, T] {
        PhaseOutcome &Mine = PerThread[T];
        Client C;
        if (!C.connectTo(Daemon.port())) {
          Mine.TransportErrors += PerClient;
          return;
        }
        for (unsigned I = 0; I != PerClient; ++I) {
          bool Health = Healthz && I % 8 == 7;
          const std::string &Kernel =
              Mix[(T + I) % Mix.size()];
          std::string Id = requestId(T, I);
          ClientResponse R;
          uint64_t S0 = nowNs();
          bool Sent =
              Health
                  ? C.request("GET", "/healthz", "", R, nullptr,
                              {{"X-PDT-Request-Id", Id}})
                  : C.request("POST", "/v1/analyze", analyzeBody(Kernel), R,
                              nullptr, {{"X-PDT-Request-Id", Id}});
          uint64_t S1 = nowNs();
          if (!Sent) {
            ++Mine.TransportErrors;
            if (!C.connectTo(Daemon.port()))
              return;
            continue;
          }
          record(Mine.Latency, S1 - S0);
          Mine.SampleNs.push_back(S1 - S0);
          if (R.Status != 200) {
            ++Mine.BadStatus;
            continue;
          }
          ++Mine.Ok;
          if (R.RequestId != Id)
            ++Mine.EchoMisses;
          if (!Health && R.Body != Oracle[Kernel])
            ++Mine.Mismatches;
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  Out.WallNs = nowNs() - T0;
  for (const PhaseOutcome &M : PerThread) {
    Out.Latency.merge(M.Latency);
    Out.SampleNs.insert(Out.SampleNs.end(), M.SampleNs.begin(),
                        M.SampleNs.end());
    Out.Ok += M.Ok;
    Out.BadStatus += M.BadStatus;
    Out.EchoMisses += M.EchoMisses;
    Out.Mismatches += M.Mismatches;
    Out.TransportErrors += M.TransportErrors;
  }
  Out.Accumulated = Svc.accumulatedStats();
  Out.Counters = Svc.counters();
  Daemon.requestDrain();
  Daemon.waitDrained();
  return Out;
}

void writePhaseReport(const char *Path, const PhaseOutcome &P,
                      unsigned Clients, bool Smoke, unsigned &Failures) {
  RunReport::reset();
  RunReport::noteTool("bench_x11_reqobs");
  RunReport::noteWorkload("mode", "reqobs");
  RunReport::noteWorkload("config", Smoke ? "smoke" : "full");
  RunReport::noteWorkload("clients", static_cast<uint64_t>(Clients));
  RunReport::noteWorkload("requests", P.Ok);
  RunReport::noteWorkload("p50_wall_ns",
                          static_cast<uint64_t>(P.Latency.quantileNs(0.5)));
  RunReport::noteWorkload("p99_wall_ns",
                          static_cast<uint64_t>(P.Latency.quantileNs(0.99)));
  RunReport::noteWorkload("max_wall_ns", P.Latency.MaxNs);
  RunReport::noteStats(P.Accumulated);
  RunReport::noteWallNs(static_cast<int64_t>(P.WallNs));
  if (!RunReport::writeTo(benchOutputPath(Path))) {
    ++Failures;
    std::cerr << "FAIL: cannot write " << Path << "\n";
  }
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  unsigned Clients = 4;
  unsigned PerClient = 250;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--clients") && I + 1 != argc)
      Clients = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--requests") && I + 1 != argc)
      PerClient = std::strtoul(argv[++I], nullptr, 10);
    else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--clients N] [--requests N]\n";
      return 2;
    }
  }
  if (Smoke) {
    Clients = 2;
    PerClient = 25;
  }
  unsigned Failures = 0;
  auto Fail = [&](const std::string &Why) {
    ++Failures;
    std::cerr << "FAIL: " << Why << "\n";
  };

  const uint64_t WantRequests = uint64_t(Clients) * PerClient;
  std::map<std::string, std::string> Oracle;
  std::string FatalError;

  //===--------------------------------------------------------------------===//
  // Phase 1: disarmed baseline (fills the oracle).
  //===--------------------------------------------------------------------===//

  AccessLog::stop(); // a PDT_ACCESS_LOG in the environment must not skew this
  PhaseOutcome Disarmed =
      runLoadPhase(Clients, PerClient, Oracle, /*FillOracle=*/true,
                   &FatalError);
  if (!FatalError.empty()) {
    std::cerr << FatalError << "\n";
    return 1;
  }
  if (Disarmed.Ok != WantRequests || Disarmed.BadStatus ||
      Disarmed.TransportErrors)
    Fail("disarmed phase: " + std::to_string(Disarmed.Ok) + "/" +
         std::to_string(WantRequests) + " ok, " +
         std::to_string(Disarmed.BadStatus) + " bad status, " +
         std::to_string(Disarmed.TransportErrors) + " transport errors");
  if (Disarmed.EchoMisses)
    Fail(std::to_string(Disarmed.EchoMisses) +
         " responses did not echo X-PDT-Request-Id (disarmed)");
  if (Disarmed.Mismatches)
    Fail("disarmed responses were not deterministic");

  //===--------------------------------------------------------------------===//
  // Phase 2: armed — identical wire traffic, plus the access log.
  //===--------------------------------------------------------------------===//

  const std::string LoadLogPath = benchOutputPath("BENCH_reqobs_access.jsonl");
  if (!AccessLog::start(LoadLogPath)) {
    std::cerr << "cannot open " << LoadLogPath << "\n";
    return 1;
  }
  PhaseOutcome Armed = runLoadPhase(Clients, PerClient, Oracle,
                                    /*FillOracle=*/false, &FatalError);
  uint64_t ArmedLines = AccessLog::linesWritten();
  AccessLog::stop();
  if (!FatalError.empty()) {
    std::cerr << FatalError << "\n";
    return 1;
  }
  if (Armed.Ok != WantRequests || Armed.BadStatus || Armed.TransportErrors)
    Fail("armed phase: " + std::to_string(Armed.Ok) + "/" +
         std::to_string(WantRequests) + " ok, " +
         std::to_string(Armed.BadStatus) + " bad status, " +
         std::to_string(Armed.TransportErrors) + " transport errors");
  if (Armed.EchoMisses)
    Fail(std::to_string(Armed.EchoMisses) +
         " responses did not echo X-PDT-Request-Id (armed)");
  if (Armed.Mismatches)
    Fail(std::to_string(Armed.Mismatches) +
         " armed responses differed from the disarmed oracle (arming the "
         "access log perturbed a response body)");

  // Exact accounting: one line per answered request — the warmup pass
  // plus the load, which is exactly what the service routed.
  uint64_t Malformed = 0;
  std::vector<AccessLine> Lines = loadAccessLines(LoadLogPath, Malformed);
  if (Malformed)
    Fail(std::to_string(Malformed) + " malformed access-log lines");
  if (ArmedLines != Armed.Counters.Requests)
    Fail("access log wrote " + std::to_string(ArmedLines) + " lines for " +
         std::to_string(Armed.Counters.Requests) + " routed requests");
  if (Lines.size() != ArmedLines)
    Fail("access file holds " + std::to_string(Lines.size()) +
         " lines but linesWritten() says " + std::to_string(ArmedLines));
  // Every load-phase ID appears exactly once, with the right route.
  std::map<std::string, uint64_t> Seen;
  for (const AccessLine &L : Lines)
    ++Seen[L.Id];
  uint64_t IdMisses = 0;
  for (unsigned T = 0; T != Clients && IdMisses < 8; ++T)
    for (unsigned I = 0; I != PerClient; ++I)
      if (Seen[requestId(T, I)] != 1)
        ++IdMisses;
  if (IdMisses)
    Fail("client request IDs missing or duplicated in the access log");
  // The per-line stats are true deltas: summed over every line they
  // must reproduce the service's accumulated total exactly (some
  // kernels in the mix legitimately contribute zero pairs).
  uint64_t LinePairs = 0, AnalyzeLines = 0;
  for (const AccessLine &L : Lines) {
    AnalyzeLines += L.Route == "POST /v1/analyze";
    LinePairs += L.ReferencePairs;
  }
  if (AnalyzeLines == 0)
    Fail("no analysis lines in the access log");
  if (LinePairs != Armed.Accumulated.ReferencePairs)
    Fail("access-line stats deltas sum to " + std::to_string(LinePairs) +
         " reference pairs but the service accumulated " +
         std::to_string(Armed.Accumulated.ReferencePairs));

  //===--------------------------------------------------------------------===//
  // Phase 3: saturation accounting — the 429s are logged too.
  //===--------------------------------------------------------------------===//

  const std::string SatLogPath =
      benchOutputPath("BENCH_reqobs_access_sat.jsonl");
  uint64_t Seen429 = 0, SatRejected = 0, SatRouted = 0;
  {
    if (!AccessLog::start(SatLogPath)) {
      std::cerr << "cannot open " << SatLogPath << "\n";
      return 1;
    }
    ServerConfig Tiny;
    Tiny.Port = 0;
    Tiny.Threads = 1;
    Tiny.QueueCapacity = 0;
    Service TinySvc;
    Server TinyDaemon(Tiny, TinySvc);
    std::string Error;
    if (!TinyDaemon.start(&Error)) {
      std::cerr << "cannot start saturation server: " << Error << "\n";
      return 1;
    }
    Client Pin;
    ClientResponse R;
    if (!Pin.connectTo(TinyDaemon.port()) || !Pin.get("/healthz", R) ||
        R.Status != 200)
      Fail("saturation pin connection did not get its first 200");
    unsigned Attempts = Smoke ? 8 : 32;
    for (unsigned I = 0; I != Attempts; ++I) {
      Client Rejected;
      ClientResponse RR;
      if (!Rejected.connectTo(TinyDaemon.port()) ||
          !Rejected.readResponse(RR))
        continue;
      if (RR.Status == 429) {
        ++Seen429;
        if (RR.RequestId.empty())
          Fail("a 429 response was missing its X-PDT-Request-Id");
      }
    }
    Pin.close();
    TinyDaemon.requestDrain();
    TinyDaemon.waitDrained();
    SatRejected = TinyDaemon.stats().Rejected429;
    SatRouted = TinySvc.counters().Requests;
  }
  AccessLog::stop();
  if (Seen429 == 0)
    Fail("saturated server never answered 429");
  uint64_t SatMalformed = 0;
  std::vector<AccessLine> SatLines = loadAccessLines(SatLogPath, SatMalformed);
  if (SatMalformed)
    Fail("malformed saturation access lines");
  uint64_t Lines429 = 0;
  std::set<std::string> Ids429;
  for (const AccessLine &L : SatLines)
    if (L.Status == 429) {
      ++Lines429;
      Ids429.insert(L.Id);
      if (L.Route != "-")
        Fail("a 429 access line carried a route (never parsed one)");
    }
  // Accounting is exact against the server's own counters — immune to
  // client-side connect/read races.
  if (Lines429 != SatRejected)
    Fail("access log holds " + std::to_string(Lines429) +
         " 429 lines but the server rejected " +
         std::to_string(SatRejected));
  if (Ids429.size() != Lines429)
    Fail("minted 429 request IDs were not unique");
  if (SatLines.size() != SatRejected + SatRouted)
    Fail("saturation log holds " + std::to_string(SatLines.size()) +
         " lines for " + std::to_string(SatRejected + SatRouted) +
         " answered requests");

  //===--------------------------------------------------------------------===//
  // Overhead gate + report.
  //===--------------------------------------------------------------------===//

  double DisarmedMean =
      Disarmed.Ok ? double(Disarmed.WallNs) / double(Disarmed.Ok) : 0.0;
  double ArmedMean = Armed.Ok ? double(Armed.WallNs) / double(Armed.Ok) : 0.0;
  // One ~15 ms phase pair cannot resolve a 5% delta on a shared
  // machine — frequency scaling and scheduler noise alone swing the
  // pair-to-pair means by more than that, and even per-leg medians
  // drift by +-20% when the scheduler preempts mid-leg. The accounting
  // phases above stand, but the gate pools every per-request wall time
  // across alternating disarmed/armed legs and compares a LOW QUANTILE
  // (p10) of the two pooled distributions: the fastest decile is the
  // requests that ran clean — no preemption, no writeback stall — and
  // a constant logging cost shifts that quantile by its full amount
  // while the noise (which only ever adds time, and lands on either
  // config at random) is excluded wholesale. Alternation plus
  // per-pair order swap de-biases slow drift.
  // The gated measurement additionally drops to one client: the
  // multi-client phases oversubscribe small machines (this may be a
  // single-core box), where any extra syscall shows up multiplied by
  // mutex-convoy and context-switch effects that have nothing to do
  // with the per-request cost being budgeted. One sequential client
  // measures exactly "what does arming add to a request".
  unsigned Reps = Smoke ? 0 : 8;
  const unsigned OverheadPerClient = PerClient * 2;
  const unsigned OverheadWant = OverheadPerClient;
  const std::string RepLogPath =
      benchOutputPath("BENCH_reqobs_access_rep.jsonl");
  std::vector<uint64_t> DisarmedNs, ArmedNs;
  std::map<std::string, std::string> HeavyOracle;
  for (unsigned Rep = 0; Rep != Reps && FatalError.empty(); ++Rep) {
    // Swap which config goes first each rep: within a pair the second
    // phase runs on a slightly cooler machine, and that penalty must
    // not always land on the armed side.
    for (unsigned Leg = 0; Leg != 2; ++Leg) {
      bool ArmLeg = (Leg ^ (Rep & 1)) != 0;
      // Drain pending writeback outside the timed window: on a small
      // machine the kernel flusher competes with the server for the
      // CPU, and the accounting phases above left ~1 MB of dirty log
      // pages that would otherwise bill their flush to whichever leg
      // runs first.
      ::sync();
      if (ArmLeg && !AccessLog::start(RepLogPath)) {
        FatalError = "cannot open " + RepLogPath;
        break;
      }
      // One client, the heaviest corpus kernels, and no healthz
      // interleave: the access line is a fixed per-request cost, so
      // the honest relative-overhead question is against real analysis
      // requests, not against requests that do nearly nothing.
      PhaseOutcome P =
          runLoadPhase(/*Clients=*/1, OverheadPerClient, HeavyOracle,
                       /*FillOracle=*/HeavyOracle.empty(), &FatalError,
                       heavyMix(), /*Healthz=*/false);
      if (ArmLeg)
        AccessLog::stop();
      if (!FatalError.empty())
        break;
      if (P.Ok != OverheadWant || P.Mismatches ||
          P.SampleNs.size() != OverheadWant)
        continue;
      std::vector<uint64_t> &Pool = ArmLeg ? ArmedNs : DisarmedNs;
      Pool.insert(Pool.end(), P.SampleNs.begin(), P.SampleNs.end());
    }
  }
  if (!FatalError.empty()) {
    std::cerr << FatalError << "\n";
    return 1;
  }
  auto P10 = [](std::vector<uint64_t> &Pool) {
    std::nth_element(Pool.begin(), Pool.begin() + Pool.size() / 10,
                     Pool.end());
    return double(Pool[Pool.size() / 10]);
  };
  if (Reps) {
    if (DisarmedNs.empty() || ArmedNs.empty())
      Fail("no clean rep survived for the overhead measurement");
    DisarmedMean = DisarmedNs.empty() ? 0.0 : P10(DisarmedNs);
    ArmedMean = ArmedNs.empty() ? 0.0 : P10(ArmedNs);
  }
  double Overhead = DisarmedMean > 0
                        ? (ArmedMean - DisarmedMean) / DisarmedMean
                        : 0.0;
  // The 5% gate needs the full workload to sit above timer and
  // scheduler noise; the smoke run reports the number without
  // asserting it.
  if (!Smoke && Overhead > 0.05)
    Fail("armed access log costs " + std::to_string(Overhead * 100) +
         "% per-request wall (budget: 5%)");

  std::printf("x11 reqobs: %llu requests x2 phases on %u clients, "
              "disarmed %.1f us/req, armed %.1f us/req (%+.2f%%), "
              "%llu access lines, %llu x 429 all logged — %s\n",
              static_cast<unsigned long long>(WantRequests), Clients,
              DisarmedMean / 1e3, ArmedMean / 1e3, Overhead * 100,
              static_cast<unsigned long long>(ArmedLines),
              static_cast<unsigned long long>(Lines429),
              Failures ? "FAILURES" : "all checks passed");

  std::ofstream Json(benchOutputPath("BENCH_reqobs.json"));
  Json << "{\n"
       << benchMetaJson("x11_reqobs") << ",\n"
       << "  \"workload\": {\"clients\": " << Clients
       << ", \"requests_per_client\": " << PerClient
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"identity\": {\"echo_misses\": "
       << Disarmed.EchoMisses + Armed.EchoMisses
       << ", \"body_mismatches\": " << Armed.Mismatches << "},\n"
       << "  \"accounting\": {\"access_lines\": " << ArmedLines
       << ", \"routed_requests\": " << Armed.Counters.Requests
       << ", \"saturation_lines\": " << SatLines.size()
       << ", \"saturation_429\": " << Lines429
       << ", \"malformed_lines\": " << Malformed + SatMalformed << "},\n"
       << "  \"overhead\": {\"disarmed_ns\": " << DisarmedMean
       << ", \"armed_ns\": " << ArmedMean
       << ", \"metric\": \"" << (Smoke ? "phase_mean" : "pooled_p10")
       << "\", \"fraction\": " << Overhead
       << ", \"gated\": " << (Smoke ? "false" : "true") << "},\n"
       << "  \"failures\": " << Failures << "\n"
       << "}\n";

  // The pdt-report-v1 pair over the identical workload: the ctest
  // chain diffs them (deterministic keys must match; *_ns keys ride
  // the noise band) and appends the armed one to the perf ledger.
  writePhaseReport("BENCH_reqobs_disarmed.json", Disarmed, Clients, Smoke,
                   Failures);
  writePhaseReport("BENCH_reqobs_armed.json", Armed, Clients, Smoke,
                   Failures);

  return Failures ? 1 : 0;
}
