//===- core/FourierMotzkin.h - FM elimination baseline ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fourier-Motzkin elimination over the rationals: the expensive
/// general-purpose baseline (paper section 7.1/7.3; Triolet measured
/// it 22-28x slower than conventional tests, which experiment X1
/// reproduces). The tester builds one linear system per reference
/// pair: source and sink iteration variables with their (possibly
/// outer-index-dependent) loop bounds, shared symbol variables, and
/// one equality per subscript; rational infeasibility proves
/// independence, feasibility is conservative (Maybe).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_FOURIERMOTZKIN_H
#define PDT_CORE_FOURIERMOTZKIN_H

#include "analysis/LoopNest.h"
#include "core/DependenceTypes.h"
#include "core/Subscript.h"
#include "core/TestStats.h"
#include "support/Budget.h"
#include "support/Rational.h"

#include <cstdint>
#include <vector>

namespace pdt {

/// Resource limits for one Fourier-Motzkin elimination. Exceeding any
/// limit makes the elimination give up conservatively (feasible, i.e.
/// dependence assumed), never crash or hang.
struct FMBudget {
  /// Maximum live constraint rows (the classic FM blowup bound).
  unsigned MaxRows = 4096;
  /// Maximum lower-upper combination steps across the elimination;
  /// 0 = unlimited.
  uint64_t MaxSteps = 0;
  /// Optional per-query deadline source (checked cooperatively every
  /// few combination steps); may be null.
  const BudgetTracker *Tracker = nullptr;
};

/// A system of linear inequalities sum(C[k] * x_k) + C0 >= 0 over
/// rational variables, decided by Fourier-Motzkin elimination.
class FMSystem {
public:
  explicit FMSystem(unsigned NumVars) : NumVars(NumVars) {}

  /// Adds sum(Coeffs[k] * x_k) + Const >= 0.
  void addInequality(std::vector<Rational> Coeffs, Rational Const);

  /// Adds an equality as two opposing inequalities.
  void addEquality(const std::vector<Rational> &Coeffs, Rational Const);

  /// Eliminates every variable; true when the system has a rational
  /// solution. Row count may grow quadratically per eliminated
  /// variable; \p MaxRows bounds the blowup (exceeding it returns
  /// true, i.e. conservatively feasible).
  bool isRationallyFeasible(unsigned MaxRows = 4096) const;

  /// Budgeted elimination: row, step, and deadline limits. When a
  /// limit is exceeded the result is conservatively feasible and
  /// \p BudgetHit (when non-null) is set.
  bool isRationallyFeasible(const FMBudget &Budget,
                            bool *BudgetHit = nullptr) const;

private:
  struct Row {
    std::vector<Rational> Coeffs;
    Rational Const;
  };
  unsigned NumVars;
  std::vector<Row> Rows;
};

/// Tests one reference pair with Fourier-Motzkin elimination.
/// Returns Independent (rational-infeasible) or Maybe. Any internal
/// failure (overflow, exhausted budget) is contained and yields Maybe.
Verdict fourierMotzkinTest(const std::vector<SubscriptPair> &Subscripts,
                           const LoopNestContext &Ctx,
                           TestStats *Stats = nullptr,
                           const FMBudget *Budget = nullptr);

} // namespace pdt

#endif // PDT_CORE_FOURIERMOTZKIN_H
