//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload W --seed N --seconds S
//
// Runs one workload (kernels, bigprog, batchheavy, serve) for S seconds
// as a closed loop and prints, as its last stdout line, one JSON object
// with the end-to-end metrics. Every op's output is checked against a
// reference; any mismatch makes the run fail and exit 1. The traced run
// (--trace 1) is perfbench_traced. See README.md in this directory for
// the workloads and the metric map.
//
// This file and what it links from the benchmark call only the public
// entry points of the libraries (analyzeSource, findParallelLoops, the
// serve classes, and the fuzz, Oracle and Interpreter modules for inputs
// and ground truth).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "ServeLoad.h"

#include <algorithm>
#include <iostream>

using namespace pdt;
using namespace perfbench;

namespace {

void addEndToEnd(MetricSink &M, const PhaseTimings &T, double PeakRssMb,
                 double SetupS, uint64_t Attempted, uint64_t Failed) {
  M.add("throughput_ops_s", T.Throughput, "1/s");
  M.add("latency_p50_us", T.P50Us, "us");
  M.add("latency_p99_us", T.P99Us, "us");
  M.add("cpu_us_per_op", T.CpuUsPerOp, "us");
  M.add("peak_rss_mb", PeakRssMb, "MiB");
  M.add("setup_s", SetupS, "s");
  M.add("ok_frac",
        Attempted ? static_cast<double>(Attempted - Failed) / Attempted : 0,
        "fraction");
  std::cout << "samples: latency_p50_us and latency_p99_us over " << T.Ops
            << " ops, " << T.Ranked << " samples ranked ("
            << (T.Ranked - std::min<uint64_t>(
                               T.Ranked, static_cast<uint64_t>(0.99 * T.Ranked)))
            << " beyond p99)\n";
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (std::optional<int> Rc = runAuxiliaryMode(A))
    return *Rc;
  if (A.Trace) {
    std::cerr << "perfbench: the traced run is perfbench_traced\n";
    return 2;
  }
  pinToOneCpu();

  Inputs In = makeInputs(A.W, A.Seed, A.Tiny);
  // setup_s is the median over fresh processes, half of them started
  // before the timed phase and half after it: a shared machine's speed
  // drifts over seconds, and one batch would sample a single moment.
  unsigned Probes = A.Tiny ? 1 : 12;
  std::vector<double> Setup = setupSamples(A, Probes);
  auto SetupS = [&] {
    for (double S : setupSamples(A, Probes))
      Setup.push_back(S);
    return median(Setup);
  };
  Reference Ref = loadReference(A, In);
  if (In.W == Workload::Kernels)
    std::cout << "oracle: " << Ref.OracleKernels << " kernels with "
              << Ref.OraclePairs << " pairs enumerated, "
              << Ref.OracleExecuted << " executed\n";
  double Seconds = A.Tiny ? std::min(A.Seconds, 1.0) : A.Seconds;
  MetricSink M;
  bool Correct = Ref.Problems.empty();
  std::vector<std::string> Problems = Ref.Problems;

  if (In.W == Workload::Serve) {
    // A request for a kernel whose reference failed can never count as
    // answered.
    std::vector<uint64_t> Expect = Ref.Full;
    std::vector<std::string> Bodies;
    for (size_t P = 0; P != Expect.size(); ++P) {
      if (Ref.Bad[P])
        Expect[P] = 0;
      Bodies.push_back(analyzeBody(In.Programs[P]));
    }
    ServeRig Rig;
    std::string Error;
    if (!Rig.start(Error)) {
      std::cerr << "perfbench: server start failed: " << Error << "\n";
      return 1;
    }
    ServeOutcome O = Rig.load(A.Seed, Seconds, Bodies, Expect, nullptr, 0);
    std::string Why;
    if (!Rig.reconcile(O, Why)) {
      Correct = false;
      Problems.push_back("serve accounting: " + Why);
    }
    std::cout << "serve: attempted " << O.Attempted << " answered "
              << O.Answered << " mismatched " << O.Mismatched << " 429 "
              << O.Status429 << " other-status " << O.OtherStatus
              << " transport " << O.Transport << " reconnects "
              << O.Reconnects << "\n";
    addEndToEnd(M, O.Timings, O.PeakRssMb, SetupS(), O.Attempted,
                O.failed());
    return finish(A, M, Correct, O.Attempted, O.failed(), Problems);
  }

  warmUp(In);
  uint64_t Cursor = 0;
  PhaseResult R = analysisLoop(In, Ref, Seconds, Cursor);
  addEndToEnd(M, R.Timings, R.PeakRssMb, SetupS(), R.Attempted, R.Failed);
  return finish(A, M, Correct, R.Attempted, R.Failed, Problems);
}
