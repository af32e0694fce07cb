//===- fuzz/Differential.h - Three-decider cross-check ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential heart of the fuzzer: every kernel runs through
/// three independently implemented deciders and every disagreement is
/// classified.
///
///   1. the fast partitioned suite (core/DependenceTester) — the
///      system under test;
///   2. the Fourier-Motzkin baseline (core/FourierMotzkin) — an
///      independent conservative decider;
///   3. ground truth — brute-force enumeration of the concretized
///      iteration space (core/Oracle), plus a sampled whole-pipeline
///      check that executes the kernel under the reference Interpreter
///      and requires every dynamic conflict to be covered by a
///      dependence-graph edge admitting the observed direction.
///
/// Classification policy: an "independent" (or a missing direction)
/// contradicted by ground truth is a soundness violation and fails the
/// campaign; a conservative "maybe" where ground truth sees no
/// dependence is an exactness loss and is only counted. Symbolic
/// kernels are judged against their sampled instantiation — a symbolic
/// independence claim must hold for every admissible symbol value, so
/// one concrete counterexample convicts.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_FUZZ_DIFFERENTIAL_H
#define PDT_FUZZ_DIFFERENTIAL_H

#include "fuzz/FuzzKernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pdt {

/// Every way the deciders can disagree. All kinds fail a kernel;
/// exactness losses are counters, not discrepancies.
enum class FuzzDiscrepancyKind {
  /// The fast suite said independent (or its vectors miss an observed
  /// direction) while brute-force enumeration found the dependence.
  SoundnessViolation,
  /// The Fourier-Motzkin baseline contradicted ground truth.
  BaselineSoundness,
  /// The fast suite claimed an exact dependence the baseline proved
  /// impossible (one of the two must be wrong; no ground truth
  /// needed).
  DeciderContradiction,
  /// The fast suite claimed an exact dependence on a fully constant
  /// kernel where enumeration found none.
  FalseExact,
  /// A dynamic conflict observed by the interpreter is not covered by
  /// any dependence-graph edge admitting its direction.
  DynamicUncovered,
  /// A decider produced a degraded result while FailOnDegraded was set
  /// (the fault-injection self-check).
  DegradedResult,
  /// The batched SoA fast path (core/PairBatch.h) and the scalar
  /// testers produced different graphs or TestStats on the same
  /// kernel; the two routings must be indistinguishable.
  BatchDivergence,
  /// A store-served graph (core/ResultStore.h) differed from the
  /// freshly computed one on the same kernel; cached and fresh answers
  /// must be indistinguishable.
  StoreDivergence,
  /// An exception escaped a decider; the never-crash contract broke.
  Abort,
};

/// Display name ("soundness-violation", ...).
const char *fuzzDiscrepancyKindName(FuzzDiscrepancyKind K);

/// One classified disagreement on one kernel.
struct FuzzDiscrepancy {
  FuzzDiscrepancyKind Kind = FuzzDiscrepancyKind::SoundnessViolation;
  /// The access pair (fuzz numbering); ~0u for kernel-level findings.
  unsigned SrcAccess = ~0u;
  unsigned SnkAccess = ~0u;
  std::string Detail;
};

/// Knobs of one differential evaluation.
struct FuzzCheckConfig {
  /// Run the Fourier-Motzkin baseline on every pair.
  bool RunFourierMotzkin = true;
  /// Run the whole-pipeline interpreter coverage check on kernels
  /// whose index is a multiple of InterpreterEvery.
  bool RunInterpreterCheck = true;
  unsigned InterpreterEvery = 4;
  /// Oracle enumeration budget (source x sink iteration pairs).
  uint64_t OracleMaxPairs = 1u << 21;
  /// Interpreter dynamic-access budget.
  uint64_t MaxDynamicAccesses = 100000;
  /// Treat degraded fast-suite results as discrepancies. Off in
  /// normal campaigns (degradation is legal); on under fault
  /// injection, where it proves injected faults surface and shrink.
  bool FailOnDegraded = false;
  /// On kernels that run the whole-pipeline check, also rebuild the
  /// dependence graph with batching forced on and forced off and
  /// require identical graphs and TestStats (skipped when fault
  /// injection is armed, which forces the scalar path anyway).
  bool RunBatchCrossCheck = true;
  /// On kernels that run the whole-pipeline check and while a
  /// persistent result store is active, rebuild the dependence graph
  /// twice through the store (populating, then hitting) and require
  /// graphs and TestStats byte-identical to the store-bypassed fresh
  /// build (skipped when the store is inactive or any fault injector
  /// is armed).
  bool RunStoreCrossCheck = true;
  /// Deliberately planted harness-validation bugs: the fuzzer must
  /// catch its own sabotage (used by the self-tests and the shrinker
  /// unit tests; never on in real campaigns).
  enum class Bug {
    None,
    ForceIndependent, ///< Report every pair as independent.
    DropLTDirection,  ///< Strip '<' from level 0 of every vector.
  };
  Bug DeliberateBug = Bug::None;
};

/// The outcome of checking one kernel against all deciders.
struct FuzzKernelVerdict {
  unsigned PairsChecked = 0;
  /// Pairs where ground truth saw no dependence but the fast suite
  /// kept a conservative edge.
  unsigned ExactnessLosses = 0;
  /// At least one pair had brute-force ground truth available.
  bool GroundTruth = false;
  /// The interpreter coverage check ran.
  bool DynamicChecked = false;
  /// The cached-vs-fresh store cross-check ran.
  bool StoreCrossChecked = false;
  std::vector<FuzzDiscrepancy> Discrepancies;

  bool failed() const { return !Discrepancies.empty(); }
};

/// Runs every decider over \p K and classifies all disagreements.
/// Never throws: an escaped exception becomes an Abort discrepancy.
FuzzKernelVerdict checkFuzzKernel(const FuzzKernel &K,
                                  const FuzzCheckConfig &Config = {});

} // namespace pdt

#endif // PDT_FUZZ_DIFFERENTIAL_H
