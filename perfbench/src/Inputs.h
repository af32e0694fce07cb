//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads and the inputs each one draws from its seed. The
/// program under test only ever sees the generated source text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "driver/Analyzer.h"
#include "fuzz/FuzzKernel.h"

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { Kernels, BigProg, BatchHeavy, Serve };

std::optional<Workload> workloadFromName(const std::string &Name);
const char *workloadName(Workload W);

/// The seed whose digests are committed in expected.json. At this seed
/// bigprog and batchheavy are exactly bench_x3's program and its
/// ablation's.
constexpr uint64_t DefaultSeed = 1;

/// Graph-build workers of the pooled builds the traced bigprog run times
/// against serial ones. Timed ops analyse serially on the caller's
/// thread: on a 4-vCPU machine a 4-worker bigprog op moved by about 16%
/// from run to run (the pool's fresh threads land on different malloc
/// arenas each build), wider than any bound the benchmark could set.
constexpr unsigned PoolWorkers = 4;
/// Server worker threads and closed-loop client connections of serve.
/// Everything serve runs shares one CPU (see pinToOneCpu), so a second
/// client would add no throughput, only time spent queued behind the
/// other client's request. That queueing amplified the host's slowdowns
/// in the tail: in alternated runs p99 ranged over 16% with two clients
/// and 11% with one, as much as CPU per request did.
constexpr unsigned ServeServerThreads = 2;
constexpr unsigned ServeClients = 1;

struct NamedSource {
  std::string Name;
  std::string Source;
};

struct Inputs {
  Workload W = Workload::Kernels;
  uint64_t Seed = DefaultSeed;
  bool Tiny = false;
  /// The distinct programs ops are drawn from. kernels cycles through
  /// them in order; bigprog and batchheavy hold one program; serve holds
  /// the whole corpus and draws from it per request.
  std::vector<NamedSource> Programs;
  /// kernels only: the structured form of each program, for the Oracle.
  std::vector<pdt::FuzzKernel> Kernels;
};

/// Generates the inputs of \p W for \p Seed. \p Tiny shrinks the kernel
/// pool for the self-tests.
Inputs makeInputs(Workload W, uint64_t Seed, bool Tiny);

/// The expected.json key of a program set: the seed, with "-tiny" for
/// the self-tests' smaller kernel pool.
std::string expectedKey(const Inputs &In);

/// The analyzer options every op of \p W runs under.
pdt::AnalyzerOptions analyzerOptions(Workload W);

/// The seeded request stream of one serve client: corpus indices.
class ServeDraws {
public:
  ServeDraws(uint64_t Seed, unsigned Client, size_t CorpusSize);
  uint32_t next() { return static_cast<uint32_t>(Rng() % CorpusSize); }

private:
  std::mt19937_64 Rng;
  size_t CorpusSize;
};

/// The /v1/analyze body for one program.
std::string analyzeBody(const NamedSource &P);

/// Digest over every generated input (and the first draws of each serve
/// client), for the determinism self-test.
uint64_t inputsDigest(const Inputs &In);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
