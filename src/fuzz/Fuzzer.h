//===- fuzz/Fuzzer.h - Differential fuzzing campaigns -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver: generate Count kernels from a seed, check each
/// against every decider on a work-stealing thread pool, then shrink
/// every finding to a locally minimal repro on the calling thread.
///
/// Determinism: the kernel stream is a pure function of (Seed, Index,
/// generator config) — see fuzz/KernelGen.h — so the set of checked
/// kernels, findings, and shrunk repros is identical at every thread
/// count. The only schedule-dependent quantity is how many kernels an
/// expired wall-clock deadline skips.
///
/// Budget-awareness: ResourceBudget::Deadline is checked before every
/// kernel (skips counted, never silent) and bounds the shrink phase;
/// the Oracle's pair budget and the shrinker's step budget cap the
/// per-kernel and per-finding work.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_FUZZ_FUZZER_H
#define PDT_FUZZ_FUZZER_H

#include "fuzz/Differential.h"
#include "fuzz/KernelGen.h"
#include "support/Budget.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pdt {

/// Everything one campaign needs. fuzzCampaignConfigFromEnv overlays
/// the PDT_FUZZ_* knobs (documented in README.md) on these defaults.
struct FuzzCampaignConfig {
  uint64_t Seed = 1;
  uint64_t Count = 10000;
  /// Worker threads; 0 = PDT_THREADS / hardware concurrency.
  unsigned NumThreads = 0;
  FuzzGenConfig Gen;
  FuzzCheckConfig Check;
  /// Deadline (when set) bounds the checking and shrinking phases.
  ResourceBudget Budget;
  /// Shrink findings to locally minimal kernels.
  bool Shrink = true;
  /// Findings kept (and shrunk) per campaign; later ones are counted
  /// but dropped.
  unsigned MaxFindings = 16;
  unsigned ShrinkMaxSteps = 5000;
  /// When non-empty, write one repro file per finding here.
  std::string ReproDir;
};

/// One kept finding: the kernel that failed, its shrunk form, and the
/// discrepancies the shrunk form still exhibits.
struct FuzzFinding {
  FuzzKernel Original;
  FuzzKernel Shrunk;
  std::vector<FuzzDiscrepancy> Discrepancies;
  unsigned ShrinkSteps = 0;
  bool ShrunkMinimal = false;
  /// Repro file path when ReproDir was set and the write succeeded.
  std::string ReproPath;
};

/// Campaign outcome. "Clean" means zero discrepancies of any kind and
/// zero aborts — the acceptance gate of bench_x6_fuzz.
struct FuzzCampaignReport {
  uint64_t KernelsChecked = 0;
  /// Kernels skipped by an expired deadline (wall-clock dependent).
  uint64_t KernelsSkipped = 0;
  uint64_t PairsChecked = 0;
  uint64_t ExactnessLosses = 0;
  /// Kernels with brute-force ground truth on at least one pair.
  uint64_t GroundTruthKernels = 0;
  /// Kernels that ran the interpreter coverage check.
  uint64_t DynamicChecks = 0;
  /// Kernels that ran the cached-vs-fresh store cross-check (zero
  /// when no store was active).
  uint64_t StoreCrossChecks = 0;
  /// Total discrepancies found (not capped by MaxFindings).
  uint64_t Discrepancies = 0;
  /// Discrepancies of kind Abort (escaped exceptions).
  uint64_t Aborts = 0;
  /// Kernels checked / with ground truth, per stratum.
  std::array<uint64_t, NumFuzzStrata> StratumKernels{};
  std::array<uint64_t, NumFuzzStrata> StratumGroundTruth{};
  std::vector<FuzzFinding> Findings;
  double ElapsedSec = 0.0;

  bool clean() const { return Discrepancies == 0 && Aborts == 0; }
  /// True when every stratum checked at least one kernel.
  bool allStrataCovered() const {
    for (uint64_t N : StratumKernels)
      if (N == 0)
        return false;
    return true;
  }
};

/// Runs one campaign. Never throws.
FuzzCampaignReport runFuzzCampaign(const FuzzCampaignConfig &Config);

/// \p Defaults overlaid with the PDT_FUZZ_* environment knobs:
/// PDT_FUZZ_SEED, PDT_FUZZ_COUNT, PDT_FUZZ_THREADS,
/// PDT_FUZZ_DEADLINE_MS, PDT_FUZZ_ORACLE_PAIRS, PDT_FUZZ_SHRINK_STEPS,
/// PDT_FUZZ_REPRO_DIR (hardened parsing via support/Env).
FuzzCampaignConfig
fuzzCampaignConfigFromEnv(FuzzCampaignConfig Defaults = {});

/// Renders the report as a JSON object body (no surrounding "meta";
/// bench_x6_fuzz composes it with benchMetaJson).
std::string fuzzReportJson(const FuzzCampaignConfig &Config,
                           const FuzzCampaignReport &Report);

/// The fault-injection self-check: scans up to Config.Count kernels
/// single-threaded, re-arming the injector from \p Spec ("overflow@3")
/// before every differential evaluation (site numbers are execution
/// order, so per-evaluation arming is the only stable interpretation),
/// with FailOnDegraded set so the injected fault surfaces as a
/// DegradedResult discrepancy. The first kernel that trips is shrunk
/// with the same re-arming predicate and returned; nullopt when the
/// spec is malformed or no kernel reaches the target site.
std::optional<FuzzFinding>
runFaultInjectionSelfCheck(const FuzzCampaignConfig &Config,
                           const std::string &Spec);

} // namespace pdt

#endif // PDT_FUZZ_FUZZER_H
