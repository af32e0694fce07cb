//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Common.h"

#include "driver/Corpus.h"
#include "driver/WorkloadGenerator.h"
#include "fuzz/KernelGen.h"
#include "serve/Service.h"
#include "support/Json.h"

#include <algorithm>
#include <set>

using namespace pdt;

namespace perfbench {

namespace {

uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// The generator seed of a workload: \p Base itself at the default seed,
/// a mixed value otherwise.
uint64_t generatorSeed(uint64_t Base, uint64_t Seed) {
  return Seed == DefaultSeed ? Base : splitmix64(Base ^ Seed);
}

/// Kernels in the pool: enough distinct shapes that every stratum is
/// represented hundreds of times and the pool's mean cost barely moves
/// from seed to seed, few enough that the Oracle checks all of them in
/// about a second.
constexpr unsigned KernelPool = 4096;
constexpr unsigned TinyKernelPool = 64;

/// The fuzz strata below this one are the paper's subscript classes;
/// Degenerate and NearOverflow are hostile inputs, not traffic.
constexpr unsigned NonHostileStrata =
    static_cast<unsigned>(FuzzStratum::Degenerate);

/// The seed's order of the top-level nests of \p Source (each starts
/// with "do " in column 0). Reordering keeps every nest, and so the pair
/// population, the distinct lowered pairs and the edge count; it moves
/// access numbering, pair order and the job schedule.
std::string permuteNests(const std::string &Source, uint64_t Seed) {
  std::vector<std::string> Nests;
  size_t Pos = 0;
  while (Pos < Source.size()) {
    size_t Eol = Source.find('\n', Pos);
    Eol = Eol == std::string::npos ? Source.size() : Eol + 1;
    if (Source.compare(Pos, 3, "do ") == 0 || Nests.empty())
      Nests.emplace_back();
    Nests.back().append(Source, Pos, Eol - Pos);
    Pos = Eol;
  }
  std::mt19937_64 Rng(splitmix64(Seed));
  std::shuffle(Nests.begin(), Nests.end(), Rng);
  std::string Out;
  for (const std::string &N : Nests)
    Out += N;
  return Out;
}

} // namespace

std::optional<Workload> workloadFromName(const std::string &Name) {
  for (Workload W : {Workload::Kernels, Workload::BigProg, Workload::BatchHeavy,
                     Workload::Serve})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Kernels: return "kernels";
  case Workload::BigProg: return "bigprog";
  case Workload::BatchHeavy: return "batchheavy";
  case Workload::Serve: return "serve";
  }
  return "?";
}

Inputs makeInputs(Workload W, uint64_t Seed, bool Tiny) {
  Inputs In;
  In.W = W;
  In.Seed = Seed;
  In.Tiny = Tiny && W == Workload::Kernels;
  switch (W) {
  case Workload::Kernels: {
    uint64_t FuzzSeed = generatorSeed(0x6B65726E656C73ull, Seed);
    unsigned Want = Tiny ? TinyKernelPool : KernelPool;
    std::set<std::string> Seen;
    for (uint64_t Index = 0; In.Programs.size() != Want; ++Index) {
      if (Index % NumFuzzStrata >= NonHostileStrata)
        continue;
      FuzzKernel K = generateFuzzKernel(FuzzSeed, Index);
      std::string Source = fuzzKernelToSource(K);
      if (!Seen.insert(Source).second)
        continue; // The stream holds distinct kernels only.
      In.Programs.push_back({"k" + std::to_string(Index), std::move(Source)});
      In.Kernels.push_back(std::move(K));
    }
    break;
  }
  // bigprog and batchheavy are bench_x3's programs; another seed
  // reorders their nests rather than drawing new programs, whose pair
  // counts (and so op cost) would differ by tens of percent from seed to
  // seed.
  case Workload::BigProg: {
    std::mt19937_64 Rng(0xBADC0FFEEull);
    std::string Source = generateRandomProgramSource(Rng, 64, /*MaxDepth=*/3,
                                                     /*StmtsPerNest=*/3);
    In.Programs.push_back(
        {"bigprog", Seed == DefaultSeed ? Source : permuteNests(Source, Seed)});
    break;
  }
  case Workload::BatchHeavy: {
    std::mt19937_64 Rng(0x5EEDBA7C4ull);
    std::string Source = generateBatchHeavyProgramSource(Rng, 64);
    In.Programs.push_back({"batchheavy", Seed == DefaultSeed
                                             ? Source
                                             : permuteNests(Source, Seed)});
    break;
  }
  case Workload::Serve:
    for (const CorpusKernel &K : corpus())
      In.Programs.push_back({K.Name, K.Source});
    break;
  }
  return In;
}

std::string expectedKey(const Inputs &In) {
  return std::to_string(In.Seed) + (In.Tiny ? "-tiny" : "");
}

AnalyzerOptions analyzerOptions(Workload W) {
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  if (W == Workload::Serve) {
    // What Service::handle runs a request under: its default limits.
    serve::ServiceLimits L;
    if (L.DeadlineMs)
      Opt.Budget.Deadline = std::chrono::milliseconds(L.DeadlineMs);
    Opt.Budget.MaxPairs = L.MaxPairs;
  }
  return Opt;
}

ServeDraws::ServeDraws(uint64_t Seed, unsigned Client, size_t CorpusSize)
    : Rng(generatorSeed(0x7365727665ull, Seed) + Client),
      CorpusSize(CorpusSize) {}

std::string analyzeBody(const NamedSource &P) {
  return "{\"name\":\"" + json::escape(P.Name) + "\",\"source\":\"" +
         json::escape(P.Source) + "\"}";
}

uint64_t inputsDigest(const Inputs &In) {
  Fnv H;
  H.str(workloadName(In.W));
  for (const NamedSource &P : In.Programs) {
    H.str(P.Name);
    H.str(P.Source);
  }
  if (In.W == Workload::Serve) {
    for (unsigned C = 0; C != ServeClients; ++C) {
      ServeDraws D(In.Seed, C, In.Programs.size());
      for (unsigned I = 0; I != 1000; ++I)
        H.u64(D.next());
    }
  }
  return H.value();
}

} // namespace perfbench
