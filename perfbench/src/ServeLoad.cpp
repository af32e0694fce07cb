//===- perfbench/src/ServeLoad.cpp - The serve workload -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "ServeLoad.h"

#include <algorithm>
#include <thread>

using namespace pdt;
using namespace pdt::serve;

namespace perfbench {

bool ServeRig::start(std::string &Error) {
  Svc = std::make_unique<Service>(ServiceLimits{});
  ServerConfig Cfg;
  Cfg.Port = 0; // ephemeral
  Cfg.Threads = ServeServerThreads;
  Srv = std::make_unique<Server>(Cfg, *Svc);
  if (!Srv->start(&Error))
    return false;
  for (unsigned C = 0; C != ServeClients; ++C) {
    auto Cl = std::make_unique<Client>();
    if (!Cl->connectTo(Srv->port(), &Error))
      return false;
    // One request per connection, so each keep-alive connection has a
    // worker before the timed phase.
    ClientResponse R;
    if (!Cl->get("/healthz", R, &Error) || R.Status != 200) {
      Error = "warm-up request failed: " + Error;
      return false;
    }
    ++WarmupRequests;
    Clients.push_back(std::move(Cl));
  }
  return true;
}

ServeRig::~ServeRig() {
  Clients.clear();
  if (Srv) {
    Srv->requestDrain();
    Srv->waitDrained();
  }
}

void mergeOutcome(ServeOutcome &A, ServeOutcome &&B) {
  A.Attempted += B.Attempted;
  A.Answered += B.Answered;
  A.Mismatched += B.Mismatched;
  A.Status429 += B.Status429;
  A.OtherStatus += B.OtherStatus;
  A.Transport += B.Transport;
  A.Reconnects += B.Reconnects;
  A.WallS += B.WallS;
  A.PeakRssMb = std::max(A.PeakRssMb, B.PeakRssMb);
}

ServeOutcome ServeRig::load(uint64_t Seed, double Seconds,
                            const std::vector<std::string> &Bodies,
                            const std::vector<uint64_t> &Expected,
                            std::vector<Tracer> *Tracers, uint64_t FirstOp) {
  std::vector<ServeOutcome> PerClient(Clients.size());
  std::vector<LatencyRecorder> Lats(Clients.size());
  std::vector<std::thread> Threads;
  uint16_t Port = Srv->port();
  std::atomic<uint64_t> Answered{0};
  resetPeakRss();
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  WindowSampler Sampler(Answered);
  for (unsigned C = 0; C != Clients.size(); ++C) {
    Threads.emplace_back([&, C] {
      ServeOutcome &O = PerClient[C];
      Client &Cl = *Clients[C];
      Tracer *T = Tracers ? &(*Tracers)[C] : nullptr;
      ServeDraws Draws(Seed, C, Bodies.size());
      LatencyRecorder &Lat = Lats[C];
      uint64_t Op = FirstOp * Clients.size() + C;
      while (nowNs() < Deadline) {
        uint32_t Idx = Draws.next();
        ClientResponse R;
        if (T)
          T->setOp(Op);
        Op += Clients.size();
        ++O.Attempted;
        int64_t T0 = nowNs();
        bool Got;
        {
          uint32_t Span = T ? T->open(SpanName::ClientPost) : UINT32_MAX;
          Got = Cl.post("/v1/analyze", Bodies[Idx], R);
          if (T)
            T->close(Span);
        }
        Lat.add(static_cast<float>(nowNs() - T0) / 1e3f, Sampler.current());
        if (!Got) {
          // Counted, never retried: the next draw is a new attempt on a
          // fresh connection.
          ++O.Transport;
          Cl.close();
          ++O.Reconnects;
          if (!Cl.connectTo(Port))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        if (R.Status == 429)
          ++O.Status429;
        else if (R.Status != 200)
          ++O.OtherStatus;
        else if (Fnv H; H.bytes(R.Body.data(), R.Body.size()),
                 H.value() != Expected[Idx])
          ++O.Mismatched;
        else {
          ++O.Answered;
          Answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Sampler.stop();
  int64_t End = nowNs();
  ServeOutcome Total;
  Total.PeakRssMb = peakRssMb();
  for (ServeOutcome &O : PerClient)
    mergeOutcome(Total, std::move(O));
  Total.WallS = static_cast<double>(End - Start) / 1e9;
  Total.Timings = phaseTimings(Sampler.windows(), Lats);
  return Total;
}

bool ServeRig::reconcile(const ServeOutcome &Total, std::string &Why) {
  Clients.clear();
  Srv->requestDrain();
  Srv->waitDrained();
  ServerStats S = Srv->stats();
  ServiceCounters C = Svc->counters();
  uint64_t Responses = Total.Attempted - Total.Transport;
  uint64_t Ok = Total.Answered + Total.Mismatched;
  // Warm-up requests went through the same server and service.
  uint64_t ServerAnswered = S.Requests + S.Rejected429 - WarmupRequests;
  uint64_t ServiceRequests = C.Requests - WarmupRequests;
  uint64_t ServiceOk = C.Ok - WarmupRequests;
  bool Match = ServerAnswered == Responses && ServiceRequests == Responses &&
               ServiceOk == Ok && S.Rejected429 == Total.Status429;
  if (!Match)
    Why = "client responses " + std::to_string(Responses) + " (200: " +
          std::to_string(Ok) + ", 429: " + std::to_string(Total.Status429) +
          ") vs server requests " + std::to_string(S.Requests) +
          " + 429s " + std::to_string(S.Rejected429) +
          ", service requests " + std::to_string(C.Requests) + " (ok " +
          std::to_string(C.Ok) + "), warm-up " +
          std::to_string(WarmupRequests);
  return Match;
}

} // namespace perfbench
