//===- perfbench/src/ServeLoad.h - The serve workload -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process Server + Service over loopback, driven by closed-loop
/// keep-alive clients that POST /v1/analyze with seeded corpus draws.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVELOAD_H
#define PERFBENCH_SERVELOAD_H

#include "Common.h"
#include "Inputs.h"

#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What the clients saw, and whether it reconciles with the server side.
struct ServeOutcome {
  uint64_t Attempted = 0;
  uint64_t Answered = 0;     ///< 200 with the reference body.
  uint64_t Mismatched = 0;   ///< 200 with another body.
  uint64_t Status429 = 0;
  uint64_t OtherStatus = 0;  ///< Any other non-200.
  uint64_t Transport = 0;    ///< No response (send/receive failed).
  uint64_t Reconnects = 0;
  double WallS = 0;
  PhaseTimings Timings;
  /// Peak resident set of the process during the phase.
  double PeakRssMb = 0;

  uint64_t failed() const {
    return Mismatched + Status429 + OtherStatus + Transport;
  }
};

/// A started server with connected clients.
class ServeRig {
public:
  /// Starts the server and connects the clients; false (with \p Error)
  /// when any step fails.
  bool start(std::string &Error);
  ~ServeRig();

  /// Closed-loop load for \p Seconds: each client sends its next request
  /// only after the previous response. \p Bodies are the request bodies
  /// per corpus index and \p Expected their reference body digests.
  /// Armed \p Tracers (one per client) get a span per Client::post. The
  /// peak resident set is reset before the clients start and read when
  /// they stop.
  ServeOutcome load(uint64_t Seed, double Seconds,
                    const std::vector<std::string> &Bodies,
                    const std::vector<uint64_t> &Expected,
                    std::vector<Tracer> *Tracers, uint64_t FirstOp);

  /// Closes the clients, drains the server and checks that the clients'
  /// counts match Server::stats() and Service::counters() since start().
  /// Describes any difference in \p Why.
  bool reconcile(const ServeOutcome &Total, std::string &Why);

private:
  std::unique_ptr<pdt::serve::Service> Svc;
  std::unique_ptr<pdt::serve::Server> Srv;
  std::vector<std::unique_ptr<pdt::serve::Client>> Clients;
  uint64_t WarmupRequests = 0;
};

/// Sums the counts of \p B into \p A.
void mergeOutcome(ServeOutcome &A, ServeOutcome &&B);

} // namespace perfbench

#endif // PERFBENCH_SERVELOAD_H
