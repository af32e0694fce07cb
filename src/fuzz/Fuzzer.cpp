//===- fuzz/Fuzzer.cpp - Differential fuzzing campaigns -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Repro.h"
#include "fuzz/Shrinker.h"
#include "support/Env.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/Sampler.h"
#include "support/ThreadPool.h"
#include "support/Watchdog.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace pdt;

namespace {

/// One worker's private accumulator; merged after the parallel loop.
struct WorkerState {
  uint64_t Checked = 0;
  uint64_t Skipped = 0;
  uint64_t Pairs = 0;
  uint64_t ExactnessLosses = 0;
  uint64_t GroundTruth = 0;
  uint64_t Dynamic = 0;
  uint64_t StoreCross = 0;
  uint64_t Discrepancies = 0;
  uint64_t Aborts = 0;
  std::array<uint64_t, NumFuzzStrata> StratumKernels{};
  std::array<uint64_t, NumFuzzStrata> StratumGroundTruth{};
  /// Failed kernels, capped to keep memory bounded.
  std::vector<std::pair<FuzzKernel, FuzzKernelVerdict>> Failures;
};

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

FuzzCampaignReport pdt::runFuzzCampaign(const FuzzCampaignConfig &Config) {
  auto Start = std::chrono::steady_clock::now();
  BudgetTracker Tracker(Config.Budget);
  ThreadPool Pool(Config.NumThreads);

  std::vector<WorkerState> Workers(Pool.numWorkers());
  const unsigned FailureCap = std::max(Config.MaxFindings, 1u);

  // Campaign watchdog probe (beats per kernel) plus live per-stratum
  // kernel counts published to the time-series sampler, so a
  // multi-hour campaign's progress is visible while it runs, not just
  // in the final report.
  Heartbeat CampaignBeat("fuzz.campaign",
                         Config.Budget.Deadline
                             ? static_cast<uint64_t>(
                                   Config.Budget.Deadline->count())
                             : 0);
  std::array<std::atomic<uint64_t>, NumFuzzStrata> LiveStratum{};
  struct SeriesGuard {
    std::vector<size_t> Ids;
    ~SeriesGuard() {
      for (size_t Id : Ids)
        Sampler::unregisterSeries(Id);
    }
  } Series;
  if (Sampler::enabled())
    for (unsigned S = 0; S != NumFuzzStrata; ++S)
      Series.Ids.push_back(Sampler::registerSeries(
          std::string("fuzz.stratum.") +
              fuzzStratumName(static_cast<FuzzStratum>(S)),
          [&LiveStratum, S] {
            return LiveStratum[S].load(std::memory_order_relaxed);
          }));
  const bool LiveSeries = !Series.Ids.empty();

  Pool.parallelFor(Config.Count, [&](size_t Index, unsigned Worker) {
    WorkerState &W = Workers[Worker];
    CampaignBeat.beat();
    if (Tracker.deadlineExpired()) {
      W.Skipped += 1;
      Metrics::count(Metric::BudgetDeadlineSkips);
      return;
    }
    FuzzKernel K = generateFuzzKernel(Config.Seed, Index, Config.Gen);
    FuzzKernelVerdict V;
    {
      LatencyTimer T(Histo::FuzzKernelNs);
      V = checkFuzzKernel(K, Config.Check);
    }
    Metrics::count(Metric::FuzzKernels);
    W.Checked += 1;
    W.Pairs += V.PairsChecked;
    W.ExactnessLosses += V.ExactnessLosses;
    W.StratumKernels[static_cast<unsigned>(K.Stratum)] += 1;
    if (LiveSeries)
      LiveStratum[static_cast<unsigned>(K.Stratum)].fetch_add(
          1, std::memory_order_relaxed);
    if (V.GroundTruth) {
      W.GroundTruth += 1;
      W.StratumGroundTruth[static_cast<unsigned>(K.Stratum)] += 1;
    }
    if (V.DynamicChecked)
      W.Dynamic += 1;
    if (V.StoreCrossChecked)
      W.StoreCross += 1;
    if (V.failed()) {
      W.Discrepancies += V.Discrepancies.size();
      for (const FuzzDiscrepancy &D : V.Discrepancies)
        if (D.Kind == FuzzDiscrepancyKind::Abort)
          W.Aborts += 1;
      // Keep this worker's FailureCap lowest-index failures (a max-heap
      // on Index): work stealing hands a worker kernels out of index
      // order, so its first failures need not be its lowest ones.
      auto ByIndex = [](const auto &A, const auto &B) {
        return A.first.Index < B.first.Index;
      };
      if (W.Failures.size() == FailureCap) {
        if (W.Failures.front().first.Index < K.Index)
          return;
        std::pop_heap(W.Failures.begin(), W.Failures.end(), ByIndex);
        W.Failures.pop_back();
      }
      W.Failures.emplace_back(std::move(K), std::move(V));
      std::push_heap(W.Failures.begin(), W.Failures.end(), ByIndex);
    }
  });

  FuzzCampaignReport Report;
  std::vector<std::pair<FuzzKernel, FuzzKernelVerdict>> Failures;
  for (WorkerState &W : Workers) {
    Report.KernelsChecked += W.Checked;
    Report.KernelsSkipped += W.Skipped;
    Report.PairsChecked += W.Pairs;
    Report.ExactnessLosses += W.ExactnessLosses;
    Report.GroundTruthKernels += W.GroundTruth;
    Report.DynamicChecks += W.Dynamic;
    Report.StoreCrossChecks += W.StoreCross;
    Report.Discrepancies += W.Discrepancies;
    Report.Aborts += W.Aborts;
    for (unsigned S = 0; S != NumFuzzStrata; ++S) {
      Report.StratumKernels[S] += W.StratumKernels[S];
      Report.StratumGroundTruth[S] += W.StratumGroundTruth[S];
    }
    for (auto &F : W.Failures)
      Failures.push_back(std::move(F));
  }

  // Kernel order, not worker order, so findings are deterministic.
  std::sort(Failures.begin(), Failures.end(),
            [](const auto &A, const auto &B) {
              return A.first.Index < B.first.Index;
            });
  if (Failures.size() > Config.MaxFindings)
    Failures.resize(Config.MaxFindings);

  // Shrink sequentially: deterministic, and fault-injection predicates
  // depend on single-threaded site numbering.
  for (auto &[Kernel, Verdict] : Failures) {
    FuzzFinding Finding;
    Finding.Original = Kernel;
    Finding.Discrepancies = Verdict.Discrepancies;
    Finding.Shrunk = Kernel;
    if (Config.Shrink && !Tracker.deadlineExpired()) {
      FuzzDiscrepancyKind Kind = Verdict.Discrepancies.front().Kind;
      FuzzPredicate SameKind = [&](const FuzzKernel &Candidate) {
        FuzzKernelVerdict V = checkFuzzKernel(Candidate, Config.Check);
        for (const FuzzDiscrepancy &D : V.Discrepancies)
          if (D.Kind == Kind)
            return true;
        return false;
      };
      FuzzShrinkResult Shrunk =
          shrinkFuzzKernel(Kernel, SameKind, Config.ShrinkMaxSteps);
      Finding.Shrunk = std::move(Shrunk.Kernel);
      Finding.ShrinkSteps = Shrunk.StepsTried;
      Finding.ShrunkMinimal = Shrunk.Minimal;
      Finding.Discrepancies =
          checkFuzzKernel(Finding.Shrunk, Config.Check).Discrepancies;
      if (Finding.Discrepancies.empty()) // Deadline mid-shrink, etc.
        Finding.Discrepancies = Verdict.Discrepancies;
    }
    if (!Config.ReproDir.empty()) {
      std::string Path =
          Config.ReproDir + "/" + fuzzReproFileName(Finding.Shrunk);
      if (writeFuzzReproFile(Path, Finding.Shrunk, Finding.Discrepancies))
        Finding.ReproPath = std::move(Path);
    }
    Report.Findings.push_back(std::move(Finding));
  }

  Report.ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Report;
}

FuzzCampaignConfig pdt::fuzzCampaignConfigFromEnv(FuzzCampaignConfig Defaults) {
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_SEED", 0, INT64_MAX))
    Defaults.Seed = static_cast<uint64_t>(*V);
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_COUNT", 1, INT64_MAX))
    Defaults.Count = static_cast<uint64_t>(*V);
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_THREADS", 1, 1024))
    Defaults.NumThreads = static_cast<unsigned>(*V);
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_DEADLINE_MS", 1, INT64_MAX))
    Defaults.Budget.Deadline = std::chrono::milliseconds(*V);
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_ORACLE_PAIRS", 1, INT64_MAX))
    Defaults.Check.OracleMaxPairs = static_cast<uint64_t>(*V);
  if (std::optional<int64_t> V = envInt("PDT_FUZZ_SHRINK_STEPS", 1, INT32_MAX))
    Defaults.ShrinkMaxSteps = static_cast<unsigned>(*V);
  if (std::optional<std::string> P = envPath("PDT_FUZZ_REPRO_DIR"))
    Defaults.ReproDir = *P;
  return Defaults;
}

std::optional<FuzzFinding>
pdt::runFaultInjectionSelfCheck(const FuzzCampaignConfig &Config,
                                const std::string &Spec) {
  FuzzCheckConfig Check = Config.Check;
  Check.FailOnDegraded = true;
  // The injected fault must surface through the static deciders; the
  // interpreter leg only adds schedule-dependent checkpoints.
  Check.RunInterpreterCheck = false;

  // Validate the spec once before the scan.
  if (!FaultInjector::armFromSpec(Spec))
    return std::nullopt;
  FaultInjector::disarm();

  auto Evaluate = [&](const FuzzKernel &K) {
    FaultInjector::armFromSpec(Spec);
    FuzzKernelVerdict V = checkFuzzKernel(K, Check);
    FaultInjector::disarm();
    return V;
  };
  auto Trips = [](const FuzzKernelVerdict &V) {
    for (const FuzzDiscrepancy &D : V.Discrepancies)
      if (D.Kind == FuzzDiscrepancyKind::DegradedResult)
        return true;
    return false;
  };

  for (uint64_t Index = 0; Index != Config.Count; ++Index) {
    FuzzKernel K = generateFuzzKernel(Config.Seed, Index, Config.Gen);
    FuzzKernelVerdict V = Evaluate(K);
    if (!Trips(V))
      continue;
    FuzzFinding Finding;
    Finding.Original = K;
    Finding.Shrunk = K;
    Finding.Discrepancies = V.Discrepancies;
    if (Config.Shrink) {
      FuzzPredicate StillTrips = [&](const FuzzKernel &Candidate) {
        return Trips(Evaluate(Candidate));
      };
      FuzzShrinkResult Shrunk =
          shrinkFuzzKernel(K, StillTrips, Config.ShrinkMaxSteps);
      Finding.Shrunk = std::move(Shrunk.Kernel);
      Finding.ShrinkSteps = Shrunk.StepsTried;
      Finding.ShrunkMinimal = Shrunk.Minimal;
      Finding.Discrepancies = Evaluate(Finding.Shrunk).Discrepancies;
    }
    if (!Config.ReproDir.empty()) {
      std::string Path =
          Config.ReproDir + "/" + fuzzReproFileName(Finding.Shrunk);
      if (writeFuzzReproFile(Path, Finding.Shrunk, Finding.Discrepancies))
        Finding.ReproPath = std::move(Path);
    }
    return Finding;
  }
  return std::nullopt;
}

std::string pdt::fuzzReportJson(const FuzzCampaignConfig &Config,
                                const FuzzCampaignReport &Report) {
  std::ostringstream OS;
  OS << "  \"config\": {\n"
     << "    \"seed\": " << Config.Seed << ",\n"
     << "    \"count\": " << Config.Count << ",\n"
     << "    \"shrink\": " << (Config.Shrink ? "true" : "false") << "\n"
     << "  },\n";
  OS << "  \"kernels_checked\": " << Report.KernelsChecked << ",\n"
     << "  \"kernels_skipped\": " << Report.KernelsSkipped << ",\n"
     << "  \"pairs_checked\": " << Report.PairsChecked << ",\n"
     << "  \"ground_truth_kernels\": " << Report.GroundTruthKernels << ",\n"
     << "  \"dynamic_checks\": " << Report.DynamicChecks << ",\n"
     << "  \"store_cross_checks\": " << Report.StoreCrossChecks << ",\n"
     << "  \"exactness_losses\": " << Report.ExactnessLosses << ",\n"
     << "  \"discrepancies\": " << Report.Discrepancies << ",\n"
     << "  \"aborts\": " << Report.Aborts << ",\n"
     << "  \"elapsed_sec\": " << Report.ElapsedSec << ",\n"
     << "  \"kernels_per_sec\": "
     << (Report.ElapsedSec > 0.0 ? Report.KernelsChecked / Report.ElapsedSec
                                 : 0.0)
     << ",\n";
  OS << "  \"strata\": {\n";
  for (unsigned S = 0; S != NumFuzzStrata; ++S) {
    OS << "    \"" << fuzzStratumName(static_cast<FuzzStratum>(S))
       << "\": { \"kernels\": " << Report.StratumKernels[S]
       << ", \"ground_truth\": " << Report.StratumGroundTruth[S] << " }"
       << (S + 1 != NumFuzzStrata ? "," : "") << "\n";
  }
  OS << "  },\n";
  OS << "  \"findings\": [\n";
  for (unsigned I = 0; I != Report.Findings.size(); ++I) {
    const FuzzFinding &F = Report.Findings[I];
    OS << "    {\n"
       << "      \"kernel_index\": " << F.Original.Index << ",\n"
       << "      \"stratum\": \"" << fuzzStratumName(F.Original.Stratum)
       << "\",\n"
       << "      \"kinds\": [";
    for (unsigned D = 0; D != F.Discrepancies.size(); ++D)
      OS << (D ? ", " : "") << "\""
         << fuzzDiscrepancyKindName(F.Discrepancies[D].Kind) << "\"";
    OS << "],\n"
       << "      \"detail\": \""
       << jsonEscape(F.Discrepancies.empty() ? ""
                                             : F.Discrepancies.front().Detail)
       << "\",\n"
       << "      \"shrunk_statements\": " << F.Shrunk.Stmts.size() << ",\n"
       << "      \"shrunk_loops\": " << F.Shrunk.Loops.size() << ",\n"
       << "      \"shrink_steps\": " << F.ShrinkSteps << ",\n"
       << "      \"minimal\": " << (F.ShrunkMinimal ? "true" : "false")
       << ",\n"
       << "      \"repro\": \"" << jsonEscape(F.ReproPath) << "\",\n"
       << "      \"source\": \"" << jsonEscape(fuzzKernelToSource(F.Shrunk))
       << "\"\n"
       << "    }" << (I + 1 != Report.Findings.size() ? "," : "") << "\n";
  }
  OS << "  ]";
  return OS.str();
}
