//===- bench/bench_x6_fuzz.cpp -------------------------------------------===//
//
// Experiment X6: the differential soundness fuzzer as an acceptance
// gate. Three hard-asserting harnesses:
//
//   1. Campaign — a seeded stream of kernels stratified over every
//      subscript class (ZIV through coupled MIV, symbolic bounds,
//      degenerate strides, near-overflow constants) cross-checked
//      against the fast partitioned suite, the Fourier-Motzkin
//      baseline, and brute-force enumeration plus sampled interpreter
//      runs. Must finish with zero discrepancies, zero aborts, and
//      every stratum exercised with ground truth.
//
//   2. Deliberate-bug self-validation — the same campaign with a
//      planted harness bug (force-independent, then drop-lt) must
//      fail, and the first finding must shrink to a <= 3-statement
//      locally minimal repro. A fuzzer that cannot catch its own
//      sabotage proves nothing.
//
//   3. Fault-injection self-check — with the injector re-armed
//      (overflow@site) before every evaluation, the fault must surface
//      as a DegradedResult discrepancy and shrink just as well.
//
// Writes BENCH_fuzz.json. --smoke runs the 100k-kernel configuration;
// the default runs 400k.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "core/ResultStore.h"
#include "driver/Analyzer.h"
#include "driver/RunReport.h"
#include "fuzz/Fuzzer.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include <unistd.h>

using namespace pdt;

namespace {

unsigned Failures = 0;

void fail(const std::string &Message) {
  ++Failures;
  std::cerr << "FAIL: " << Message << "\n";
}

/// Runs a sabotaged campaign and asserts the fuzzer catches the bug
/// and shrinks the first finding to <= 3 statements.
void checkDeliberateBug(FuzzCheckConfig::Bug Bug, const char *Name) {
  FuzzCampaignConfig Config;
  Config.Seed = 7;
  Config.Count = 2000;
  Config.Check.DeliberateBug = Bug;
  Config.MaxFindings = 4;
  FuzzCampaignReport Report = runFuzzCampaign(Config);
  if (Report.clean()) {
    fail(std::string("deliberate bug '") + Name + "' was not caught");
    return;
  }
  if (Report.Findings.empty()) {
    fail(std::string("deliberate bug '") + Name + "' kept no finding");
    return;
  }
  const FuzzFinding &F = Report.Findings.front();
  bool Soundness = false;
  for (const FuzzDiscrepancy &D : F.Discrepancies)
    Soundness |= D.Kind == FuzzDiscrepancyKind::SoundnessViolation;
  if (!Soundness)
    fail(std::string("deliberate bug '") + Name +
         "' was not classified as a soundness violation");
  if (F.Shrunk.Stmts.size() > 3)
    fail(std::string("deliberate bug '") + Name + "' repro kept " +
         std::to_string(F.Shrunk.Stmts.size()) + " statements (> 3)");
  if (F.ShrinkSteps == 0)
    fail(std::string("deliberate bug '") + Name + "' was never shrunk");
  std::printf("self-check '%s': caught at kernel %llu, shrunk to "
              "%zu stmt / %zu loop(s) in %u steps%s\n",
              Name, static_cast<unsigned long long>(F.Original.Index),
              F.Shrunk.Stmts.size(), F.Shrunk.Loops.size(), F.ShrinkSteps,
              F.ShrunkMinimal ? "" : " (step budget hit)");
}

} // namespace

int main(int argc, char **argv) {
  RunReport::noteTool("bench_x6_fuzz");
  bool Smoke = false;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else {
      std::cerr << "usage: " << argv[0] << " [--smoke]\n";
      return 2;
    }
  }

  //===------------------------------------------------------------------===//
  // 1. The campaign: >= 100k kernels, zero discrepancies, all strata.
  //
  // A throwaway persistent store is active for the whole campaign so
  // the cached-vs-fresh cross-check (fuzz/Differential.cpp) runs on
  // every interpreter-checked kernel: cached answers must be
  // byte-identical to fresh ones over the full stratified stream.
  //===------------------------------------------------------------------===//
  std::error_code EC;
  std::filesystem::path StoreDir =
      std::filesystem::temp_directory_path(EC) /
      ("pdt-x6-store-" + std::to_string(static_cast<unsigned>(getpid())));
  bool StoreActive =
      !EC &&
      ResultStore::activate(StoreDir.string(),
                            analyzerOptionsFingerprint(AnalyzerOptions()));

  FuzzCampaignConfig Config;
  Config.Seed = 1;
  Config.Count = Smoke ? 100000 : 400000;
  Config = fuzzCampaignConfigFromEnv(Config);
  FuzzCampaignReport Report = runFuzzCampaign(Config);

  ResultStore::deactivate();
  std::filesystem::remove_all(StoreDir, EC);

  std::printf("campaign: %llu kernels, %llu pairs, %llu ground-truth "
              "kernels, %llu dynamic checks, %llu store cross-checks, "
              "%llu exactness losses, %.1f s (%.0f kernels/s)\n",
              static_cast<unsigned long long>(Report.KernelsChecked),
              static_cast<unsigned long long>(Report.PairsChecked),
              static_cast<unsigned long long>(Report.GroundTruthKernels),
              static_cast<unsigned long long>(Report.DynamicChecks),
              static_cast<unsigned long long>(Report.StoreCrossChecks),
              static_cast<unsigned long long>(Report.ExactnessLosses),
              Report.ElapsedSec,
              Report.ElapsedSec > 0
                  ? Report.KernelsChecked / Report.ElapsedSec
                  : 0.0);
  if (!Report.clean())
    fail("campaign found " + std::to_string(Report.Discrepancies) +
         " discrepancies / " + std::to_string(Report.Aborts) + " aborts");
  if (StoreActive && Report.StoreCrossChecks == 0)
    fail("store was active but the cached-vs-fresh cross-check never ran");
  if (!Report.allStrataCovered())
    fail("campaign left a stratum unexercised");
  for (unsigned S = 0; S != NumFuzzStrata; ++S)
    if (Report.StratumGroundTruth[S] == 0)
      fail(std::string("stratum ") +
           fuzzStratumName(static_cast<FuzzStratum>(S)) +
           " never had brute-force ground truth");
  for (const FuzzFinding &F : Report.Findings) {
    std::printf("finding at kernel %llu:\n%s",
                static_cast<unsigned long long>(F.Original.Index),
                fuzzKernelToSource(F.Shrunk).c_str());
    for (const FuzzDiscrepancy &D : F.Discrepancies)
      std::printf("  %s: %s\n", fuzzDiscrepancyKindName(D.Kind),
                  D.Detail.c_str());
  }

  //===------------------------------------------------------------------===//
  // 2. Deliberate harness bugs must be caught and shrunk.
  //===------------------------------------------------------------------===//
  checkDeliberateBug(FuzzCheckConfig::Bug::ForceIndependent,
                     "force-independent");
  checkDeliberateBug(FuzzCheckConfig::Bug::DropLTDirection, "drop-lt");

  //===------------------------------------------------------------------===//
  // 3. Injected arithmetic faults must surface and shrink.
  //===------------------------------------------------------------------===//
  unsigned FaultChecks = 0;
  for (const char *Spec : {"overflow@3", "internal@5"}) {
    FuzzCampaignConfig FaultConfig;
    FaultConfig.Seed = 11;
    FaultConfig.Count = 5000;
    std::optional<FuzzFinding> F = runFaultInjectionSelfCheck(FaultConfig, Spec);
    if (!F) {
      fail(std::string("injected fault ") + Spec + " never surfaced");
      continue;
    }
    ++FaultChecks;
    if (F->Shrunk.Stmts.size() > 3)
      fail(std::string("injected fault ") + Spec + " repro kept " +
           std::to_string(F->Shrunk.Stmts.size()) + " statements (> 3)");
    bool Degraded = false;
    for (const FuzzDiscrepancy &D : F->Discrepancies)
      Degraded |= D.Kind == FuzzDiscrepancyKind::DegradedResult;
    if (!Degraded)
      fail(std::string("injected fault ") + Spec +
           " did not classify as a degraded result");
    std::printf("fault self-check %s: caught at kernel %llu, shrunk to "
                "%zu stmt in %u steps\n",
                Spec, static_cast<unsigned long long>(F->Original.Index),
                F->Shrunk.Stmts.size(), F->ShrinkSteps);
  }

  std::printf("x6 fuzz: %s\n", Failures ? "FAILURES" : "all checks passed");

  std::ofstream Json(benchOutputPath("BENCH_fuzz.json"));
  Json << "{\n"
       << benchMetaJson("x6_fuzz") << ",\n"
       << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
       << fuzzReportJson(Config, Report) << ",\n"
       << "  \"deliberate_bug_checks\": 2,\n"
       << "  \"fault_injection_checks\": " << FaultChecks << ",\n"
       << "  \"failures\": " << Failures << "\n"
       << "}\n";

  return Failures ? 1 : 0;
}
