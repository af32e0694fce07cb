//===- perfbench/src/Bench.h - Run plumbing of both binaries ----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the end-to-end binary (perfbench) and the traced one
/// (perfbench_traced) share: arguments, the modes that print something
/// other than a result (reference child, set-up probe, input dump,
/// expected.json), CPU placement, the op of the analysis workloads and its
/// closed loop, and the result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Common.h"
#include "Inputs.h"
#include "Reference.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  Workload W = Workload::Kernels;
  bool HaveWorkload = false;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool CorruptReference = false;
  bool ReferenceChild = false;
  bool SetupProbe = false;
  bool DumpInputs = false;
  bool WriteExpected = false;
  std::string Expected;
  std::string OutDir;
  std::string Commit = "unknown";
};

/// Parses the command line; exits 2 with usage on a bad one.
Args parseArgs(int Argc, char **Argv);

/// Runs the modes that print something other than a result line
/// (--reference, --setup-probe, --dump-inputs, --write-expected) and
/// returns their exit code; nullopt for a measured run.
std::optional<int> runAuxiliaryMode(const Args &A);

/// Pins the calling thread (and every thread it starts later) to the last
/// CPU the process may run on. Every workload runs pinned. The analysis
/// workloads' one caller thread is then never migrated mid-op. On serve,
/// clients and server workers hand each request over on one CPU, without
/// the cross-CPU wake-ups whose cost on a virtual machine follows the
/// host's load; serve then measures the serving path's own cost.
void pinToOneCpu();
/// Lets the calling thread (and the threads it starts) use every CPU the
/// process started with again.
void unpin();

/// The reference of \p In, computed by a child process of this binary
/// with PDT_BATCH=off (see Reference.h); exits 1 when the child fails.
Reference loadReference(const Args &A, const Inputs &In);

/// One op: source text -> parse -> normalize -> IV-sub -> graph ->
/// findParallelLoops, as a compiler front end runs it.
struct OpOutput {
  bool Parsed = false;
  uint64_t Digest = 0;
};
OpOutput runOp(const NamedSource &P, const pdt::AnalyzerOptions &Opt,
               double &LatencyUs);

/// The warm-up before the timed phase: the ops that trigger lazy
/// first-use initialisation.
void warmUp(const Inputs &In);

/// The program's set-up in each of \p Count fresh processes, in seconds:
/// the warm-up, or for serve the server start and client connections.
std::vector<double> setupSamples(const Args &A, unsigned Count);

struct PhaseResult {
  uint64_t Attempted = 0, Failed = 0;
  double WallS = 0;
  PhaseTimings Timings;
  /// Peak resident set of the process during the phase.
  double PeakRssMb = 0;
};

/// The closed loop of the analysis workloads: one caller, next op after
/// the previous one returns, ops cycling through the programs in order
/// from \p Cursor. The caller closes the windows itself, at op
/// boundaries.
PhaseResult analysisLoop(const Inputs &In, const Reference &Ref,
                         double Seconds, uint64_t &Cursor);

/// Prints the metrics, the run stamp and the result line; returns the
/// exit code (0 only when every op matched its reference).
int finish(const Args &A, const MetricSink &M, bool Correct,
           uint64_t Attempted, uint64_t Failed,
           const std::vector<std::string> &Problems);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
