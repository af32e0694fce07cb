//===- examples/depserved.cpp - Dependence analysis as a service ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// depserved: the long-running daemon that serves the dependence
// analyzer over HTTP/1.1 + JSON on loopback (docs/SERVING.md is the
// canonical API reference, docs/OPERATIONS.md the runbook).
//
//   depserved [--port N] [--threads N] [--queue N] [--idle-ms N]
//             [--max-body BYTES] [--deadline-ms N] [--max-pairs N]
//             [--any-interface] [--report FILE] [--access-log FILE]
//   depserved --version
//
// Defaults come from the PDT_SERVE_* environment knobs (see
// docs/SERVING.md §Configuration); flags override the environment.
// --port 0 binds an ephemeral port. The bound port is announced on
// stdout as "depserved listening on port N" — harness scripts key off
// that line.
//
// Lifecycle: SIGTERM or SIGINT begins a graceful drain — the listener
// closes, admitted connections finish their current request with
// "Connection: close", and the process exits 0. At exit the daemon
// writes a pdt-report-v1 run report (--report FILE, or PDT_REPORT) with
// the accumulated analysis stats, serve.* counters, and the
// latency.serve_request_ns histogram, so a serving session lands in
// the same ledger as every batch run.
//
// Exit codes: 0 clean drain, 1 cannot bind, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "serve/AccessLog.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/BuildInfo.h"
#include "support/Metrics.h"
#include "driver/RunReport.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pdt;
using namespace pdt::serve;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--threads N] [--queue N] [--idle-ms N]\n"
      "          [--max-body BYTES] [--deadline-ms N] [--max-pairs N]\n"
      "          [--any-interface] [--report FILE] [--access-log FILE]\n"
      "       %s --version\n"
      "\n"
      "Dependence analysis as a service; see docs/SERVING.md.\n"
      "Defaults come from PDT_SERVE_*; flags override.\n",
      Argv0, Argv0);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t Max, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Environment first, flags second: a flag always wins.
  ServerConfig Config = ServerConfig::fromEnvironment();
  ServiceLimits Limits = Service::limitsFromEnvironment();
  std::string ReportPath;
  std::string AccessLogPath;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    uint64_t N = 0;
    if (!std::strcmp(Arg, "--version")) {
      std::printf("%s\n", buildInfoLine("depserved").c_str());
      return 0;
    } else if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage(Argv[0]);
      return 0;
    } else if (!std::strcmp(Arg, "--port")) {
      if (!parseUnsigned(Value(), 65535, N))
        return usage(Argv[0]);
      Config.Port = static_cast<uint16_t>(N);
    } else if (!std::strcmp(Arg, "--threads")) {
      if (!parseUnsigned(Value(), 256, N) || N == 0)
        return usage(Argv[0]);
      Config.Threads = static_cast<unsigned>(N);
    } else if (!std::strcmp(Arg, "--queue")) {
      if (!parseUnsigned(Value(), 65536, N))
        return usage(Argv[0]);
      Config.QueueCapacity = N;
    } else if (!std::strcmp(Arg, "--idle-ms")) {
      if (!parseUnsigned(Value(), 3600000, N) || N < 10)
        return usage(Argv[0]);
      Config.IdleTimeoutMs = N;
    } else if (!std::strcmp(Arg, "--max-body")) {
      if (!parseUnsigned(Value(), 1024ull * 1024 * 1024, N) || N < 1024)
        return usage(Argv[0]);
      Config.MaxBodyBytes = N;
    } else if (!std::strcmp(Arg, "--deadline-ms")) {
      if (!parseUnsigned(Value(), 3600000, N))
        return usage(Argv[0]);
      Limits.DeadlineMs = N;
    } else if (!std::strcmp(Arg, "--max-pairs")) {
      if (!parseUnsigned(Value(), ~0ull, N))
        return usage(Argv[0]);
      Limits.MaxPairs = N;
    } else if (!std::strcmp(Arg, "--any-interface")) {
      Config.LoopbackOnly = false;
    } else if (!std::strcmp(Arg, "--report")) {
      const char *V = Value();
      if (!V)
        return usage(Argv[0]);
      ReportPath = V;
    } else if (!std::strcmp(Arg, "--access-log")) {
      // Flag parity with PDT_ACCESS_LOG (a flag always wins: the env
      // path was already armed by the static initializer, so this
      // restarts the log at the flag's path).
      const char *V = Value();
      if (!V)
        return usage(Argv[0]);
      AccessLogPath = V;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", Argv[0], Arg);
      return usage(Argv[0]);
    }
  }

  // Serving telemetry is the point of the daemon: arm metrics even
  // when PDT_METRICS is unset so /v1/stats and the exit report carry
  // real counters and latency quantiles.
  if (!Metrics::enabled())
    Metrics::enable();

  if (!AccessLogPath.empty() && !AccessLog::start(AccessLogPath)) {
    std::fprintf(stderr, "depserved: cannot open access log %s\n",
                 AccessLogPath.c_str());
    return 1;
  }

  Service Svc(Limits);
  Server Daemon(Config, Svc);
  std::string Error;
  if (!Daemon.start(&Error)) {
    std::fprintf(stderr, "depserved: %s\n", Error.c_str());
    return 1;
  }
  Server::installSignalHandlers(&Daemon);

  std::printf("depserved listening on port %u\n",
              static_cast<unsigned>(Daemon.port()));
  std::printf("  workers=%u queue=%zu idle_ms=%llu deadline_ms=%llu\n",
              Config.Threads, Config.QueueCapacity,
              static_cast<unsigned long long>(Config.IdleTimeoutMs),
              static_cast<unsigned long long>(Limits.DeadlineMs));
  std::fflush(stdout);

  // Block until SIGTERM/SIGINT drains us.
  Daemon.waitDrained();
  Svc.setDraining(true);
  Server::installSignalHandlers(nullptr);

  ServerStats SS = Daemon.stats();
  ServiceCounters SC = Svc.counters();
  std::printf("depserved drained: %llu requests (%llu ok, %llu client-err, "
              "%llu server-err), %llu rejected-429, %llu analyses\n",
              static_cast<unsigned long long>(SS.Requests),
              static_cast<unsigned long long>(SC.Ok),
              static_cast<unsigned long long>(SC.ClientErrors),
              static_cast<unsigned long long>(SC.ServerErrors),
              static_cast<unsigned long long>(SS.Rejected429),
              static_cast<unsigned long long>(SC.Analyses));

  RunReport::noteTool("depserved");
  RunReport::noteWorkload("port", static_cast<uint64_t>(Daemon.port()));
  RunReport::noteWorkload("serve.requests", SS.Requests);
  RunReport::noteWorkload("serve.rejected_429", SS.Rejected429);
  RunReport::noteWorkload("serve.analyses", SC.Analyses);
  if (AccessLog::enabled()) {
    RunReport::noteWorkload("serve.access_lines", AccessLog::linesWritten());
    AccessLog::stop();
  }
  RunReport::noteStats(Svc.accumulatedStats());
  if (!ReportPath.empty() && !RunReport::writeTo(ReportPath)) {
    std::fprintf(stderr, "depserved: cannot write report to %s\n",
                 ReportPath.c_str());
  }
  return 0;
}
