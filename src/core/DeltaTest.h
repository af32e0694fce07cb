//===- core/DeltaTest.h - The Delta test for coupled groups -----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Delta test (paper section 5): an exact-yet-efficient multiple
/// subscript test for coupled groups. It applies the exact
/// single-subscript tests to derive *constraints* on each index,
/// intersects them in the constraint lattice (emptiness proves
/// independence), propagates distance and point constraints into the
/// remaining MIV/RDIV subscripts of the group (which may reduce them
/// to SIV/ZIV and seed further passes), handles coupled RDIV pairs
/// specially (section 5.3.2), and falls back on the GCD/Banerjee MIV
/// tests only for what remains. Each subscript is tested at most a
/// constant number of times, so the whole test is linear in the number
/// of subscripts.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_DELTATEST_H
#define PDT_CORE_DELTATEST_H

#include "analysis/LoopNest.h"
#include "core/Constraint.h"
#include "core/DependenceTypes.h"
#include "core/Subscript.h"
#include "core/TestStats.h"

#include <map>
#include <span>
#include <string>
#include <vector>

namespace pdt {

/// Result of running the Delta test on one coupled group.
struct DeltaResult {
  Verdict TheVerdict = Verdict::Maybe;
  /// Test that proved independence (when TheVerdict is Independent):
  /// the single-subscript test that fired, or TestKind::Delta when the
  /// proof came from constraint intersection or propagation, or a MIV
  /// test kind for residual subscripts.
  TestKind DecidedBy = TestKind::Delta;
  /// True when every subscript of the group was resolved exactly (the
  /// dependence and its vectors are certain, not conservative).
  bool Exact = false;
  /// Surviving dependence vectors over the full nest depth; levels of
  /// indices outside the group stay '*'. Meaningful unless Independent.
  std::vector<DependenceVector> Vectors;
  /// Final per-index constraints (exposed for tests and the trace
  /// bench).
  std::map<std::string, Constraint> Constraints;
  /// Number of passes the iterative algorithm made.
  unsigned Passes = 0;
  /// True when MIV subscripts survived propagation and were handed to
  /// the GCD/Banerjee fallback (a source of imprecision, section 5.4).
  bool ResidualMIV = false;
};

/// Runs the Delta test on the coupled group \p Group (subscript pairs
/// of one reference pair that share indices). \p Trace, when non-null,
/// receives a human-readable step-by-step log (used by the Figure 3
/// reproduction); its lines are only formatted when it is given.
DeltaResult runDeltaTest(const std::vector<SubscriptPair> &Group,
                         const LoopNestContext &Ctx,
                         TestStats *Stats = nullptr,
                         std::string *Trace = nullptr);

/// The Delta test on the coupled group formed by the subscripts of
/// \p Subscripts at \p Positions, over tagged equations the caller
/// already built: \p Equations[P] is Subscripts[P].equation() for
/// every P in \p Positions. The partition-based tester builds each
/// subscript's equation once and hands its groups over this way; the
/// overload above builds the equations of a whole group.
DeltaResult runDeltaTest(const std::vector<SubscriptPair> &Subscripts,
                         std::span<const LinearExpr> Equations,
                         std::span<const unsigned> Positions,
                         const LoopNestContext &Ctx, TestStats *Stats,
                         std::string *Trace);

} // namespace pdt

#endif // PDT_CORE_DELTATEST_H
