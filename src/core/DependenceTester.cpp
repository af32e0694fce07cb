//===- core/DependenceTester.cpp - Partition-based testing ----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceTester.h"

#include "core/Explain.h"
#include "core/MIVTests.h"
#include "core/Partition.h"
#include "core/ResultStore.h"
#include "core/SIVTests.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"
#include "support/InlineVector.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <map>

#include <cassert>

using namespace pdt;

namespace {

/// Harvests peel/split hints from one SIV result.
void collectHints(const SIVResult &R, std::vector<TransformHint> &Hints) {
  if (R.PeelFirst)
    Hints.push_back({TransformHint::Kind::PeelFirst, R.Index, std::nullopt,
                     std::nullopt});
  if (R.PeelLast)
    Hints.push_back({TransformHint::Kind::PeelLast, R.Index, std::nullopt,
                     std::nullopt});
  if (R.CrossingPoint)
    Hints.push_back({TransformHint::Kind::Split, R.Index, R.CrossingPoint,
                     std::nullopt});
  if (R.SymbolicCrossingSum)
    Hints.push_back({TransformHint::Kind::Split, R.Index, std::nullopt,
                     R.SymbolicCrossingSum});
}

} // namespace

DependenceTestResult pdt::degradedTestResult(unsigned Depth,
                                             AnalysisFailure Failure,
                                             TestStats *Stats) {
  DependenceTestResult Result;
  Result.TheVerdict = Verdict::Maybe;
  Result.Exact = false;
  Result.Degraded = true;
  Result.Vectors.assign(1, DependenceVector(Depth));
  if (Stats)
    Stats->noteDegraded(Failure.Kind);
  Metrics::count(Metric::PairsDegraded);
  Metrics::countDegraded(static_cast<unsigned>(Failure.Kind));
  Result.Failure = std::move(Failure);
  return Result;
}

namespace {

/// Renders a Delta constraint map as "i: dist 1; j: point (3, 5)".
std::string constraintMapString(const std::map<std::string, Constraint> &M) {
  std::string Out;
  for (const auto &[Index, C] : M) {
    if (!Out.empty())
      Out += "; ";
    Out += Index;
    Out += ": ";
    Out += C.str();
  }
  return Out;
}

/// Renders the constraint values an SIV result derived:
/// "index i: direction <, distance 1, lattice dist 1".
std::string sivConstraintString(const SIVResult &R) {
  if (R.Index.empty())
    return std::string();
  std::string Out = "index " + R.Index + ": direction " +
                    directionSetString(R.Directions);
  if (R.Distance)
    Out += ", distance " + std::to_string(*R.Distance);
  if (!R.IndexConstraint.isAny())
    Out += ", lattice " + R.IndexConstraint.str();
  return Out;
}

/// The uncontained algorithm body; may raise AnalysisError.
DependenceTestResult
testDependenceImpl(const std::vector<SubscriptPair> &Subscripts,
                   const LoopNestContext &Ctx, TestStats *Stats,
                   PairExplanation *Ex) {
  DependenceTestResult Result;
  unsigned Depth = Ctx.depth();
  std::vector<DependenceVector> Vectors{DependenceVector(Depth)};
  bool AllExact = true;

  auto Independent = [&](TestKind By) {
    Result.TheVerdict = Verdict::Independent;
    Result.DecidedBy = By;
    Result.Exact = true;
    Result.Vectors.clear();
    if (Stats)
      Stats->noteIndependence(By);
    return Result;
  };

  // A loop that provably cannot iterate (empty computed index range,
  // e.g. constant bounds with Upper < Lower) executes no statement
  // instance: every pair in the nest is independent regardless of the
  // subscripts. Symbolic and non-affine bounds evaluate to non-empty
  // conservative ranges, so only certainly-empty nests short-circuit.
  for (const LoopBounds &L : Ctx.loops())
    if (Ctx.indexRange(L.Index).isEmpty())
      return Independent(TestKind::EmptyNest);

  // Step 1: partition into separable subscripts and minimal coupled
  // groups.
  std::vector<SubscriptPartition> Partitions = partitionSubscripts(Subscripts);

  // Each subscript's tagged dependence equation, built once for the
  // class counters, the shape and the test. The counters classify every
  // subscript up front; without them an equation is built when its
  // partition is reached, as the tests need it.
  std::vector<LinearExpr> Eqs(Subscripts.size());
  InlineVector<bool, 8> Built(Subscripts.size(), false);
  auto Equation = [&](unsigned Pos) -> const LinearExpr & {
    if (!Built[Pos]) {
      Eqs[Pos] = Subscripts[Pos].equation();
      Built[Pos] = true;
    }
    return Eqs[Pos];
  };
  if (Stats) {
    for (const SubscriptPartition &P : Partitions) {
      if (P.isSeparable())
        ++Stats->SeparableSubscripts;
      else
        Stats->CoupledSubscripts += P.Positions.size();
    }
    for (unsigned Pos = 0; Pos != Subscripts.size(); ++Pos) {
      switch (classifyEquation(Equation(Pos))) {
      case SubscriptClass::ZIV:
        ++Stats->ZIVSubscripts;
        break;
      case SubscriptClass::SIV:
        ++Stats->SIVSubscripts;
        break;
      case SubscriptClass::MIV:
        ++Stats->MIVSubscripts;
        break;
      }
    }
  }

  // The explain recorder shadows the control flow below: each
  // partition contributes one ExplainStep, pushed just before any
  // early Independent return so the report shows which test ended the
  // algorithm.
  ExplainStep Step;
  auto BeginStep = [&](const SubscriptPartition &P) {
    if (!Ex)
      return;
    Step = ExplainStep();
    Step.Coupled = !P.isSeparable();
    for (unsigned Pos : P.Positions) {
      Step.Dims.push_back(Subscripts[Pos].Dim);
      Step.Subscripts.push_back(Subscripts[Pos].str());
    }
  };
  auto RecordSIV = [&](const SIVResult &R) {
    if (!Ex)
      return;
    Step.Applied = R.Test;
    Step.StepVerdict = R.TheVerdict;
    Step.Exact = R.Exact;
    Step.Constraints = sivConstraintString(R);
    Ex->Steps.push_back(Step);
  };
  auto RecordMIV = [&](const MIVResult &M) {
    if (!Ex)
      return;
    Step.Applied = M.Test;
    Step.StepVerdict = M.TheVerdict;
    Step.Exact = false;
    Ex->Steps.push_back(Step);
  };

  for (const SubscriptPartition &P : Partitions) {
    BeginStep(P);
    if (!P.isSeparable()) {
      // Step 4: Delta test on the coupled group.
      for (unsigned Pos : P.Positions)
        Equation(Pos);
      Span DeltaSpan("DeltaTest::run", "delta", testKindTag(TestKind::Delta));
      LatencyTimer DeltaLatency(Histo::DeltaNs);
      std::string DeltaLog;
      DeltaResult D = runDeltaTest(Subscripts, Eqs, P.Positions, Ctx, Stats,
                                   Ex ? &DeltaLog : nullptr);
      if (Ex) {
        Step.Applied = D.DecidedBy;
        Step.StepVerdict = D.TheVerdict;
        Step.Exact = D.Exact;
        Step.Constraints = constraintMapString(D.Constraints);
        Step.Detail = "passes: " + std::to_string(D.Passes);
        if (D.ResidualMIV)
          Step.Detail += "; residual MIV handed to GCD/Banerjee fallback";
        if (!DeltaLog.empty())
          Step.Detail += "\n" + DeltaLog;
        Ex->Steps.push_back(Step);
      }
      if (D.TheVerdict == Verdict::Independent)
        return Independent(D.DecidedBy);
      if (!D.Exact)
        AllExact = false;
      intersectVectorSets(Vectors, D.Vectors);
      continue;
    }

    // Steps 2-3: classify the separable subscript and apply the
    // matching single-subscript test.
    const LinearExpr &Eq = Equation(P.Positions.front());
    SubscriptShape Shape = shapeOfEquation(Eq);
    if (Ex) {
      Step.Shape = Shape;
      Step.Detail = "dependence equation: " + Eq.str() + " = 0";
    }
    switch (Shape) {
    case SubscriptShape::ZIV: {
      SIVResult R = testZIV(Eq, Ctx, Stats);
      RecordSIV(R);
      if (R.TheVerdict == Verdict::Independent)
        return Independent(R.Test);
      if (!R.Exact)
        AllExact = false;
      break;
    }
    case SubscriptShape::StrongSIV:
    case SubscriptShape::WeakZeroSIV:
    case SubscriptShape::WeakCrossingSIV:
    case SubscriptShape::GeneralSIV: {
      SIVResult R = testSIV(Eq, Ctx, Stats);
      RecordSIV(R);
      if (R.TheVerdict == Verdict::Independent)
        return Independent(R.Test);
      if (!R.Exact)
        AllExact = false;
      collectHints(R, Result.Hints);
      if (std::optional<unsigned> Level = Ctx.levelOf(R.Index)) {
        DependenceVector Filter(Depth);
        Filter.Directions[*Level] = R.Directions;
        Filter.Distances[*Level] = R.Distance;
        refineVectorSet(Vectors, Filter);
      }
      break;
    }
    case SubscriptShape::RDIV: {
      // Exact existence check first, then Banerjee for directions.
      SIVResult R = testRDIV(Eq, Ctx, Stats);
      if (R.TheVerdict == Verdict::Independent) {
        RecordSIV(R);
        return Independent(R.Test);
      }
      AllExact = false; // Directions below are conservative.
      MIVResult M = testBanerjee(Eq, Ctx, Stats);
      if (Ex) {
        Step.Detail += "; RDIV existence check " +
                       std::string(R.TheVerdict == Verdict::Dependent
                                       ? "proved a solution exists"
                                       : "could not decide") +
                       ", Banerjee directions are conservative";
        RecordMIV(M);
      }
      if (M.TheVerdict == Verdict::Independent)
        return Independent(M.Test);
      if (!M.Vectors.empty())
        intersectVectorSets(Vectors, M.Vectors);
      break;
    }
    case SubscriptShape::GeneralMIV: {
      MIVResult M = testMIV(Eq, Ctx, Stats);
      RecordMIV(M);
      if (M.TheVerdict == Verdict::Independent)
        return Independent(M.Test);
      AllExact = false; // Banerjee directions are conservative.
      if (!M.Vectors.empty())
        intersectVectorSets(Vectors, M.Vectors);
      break;
    }
    }
  }

  // Step 6: the surviving merged vectors. Partitions constrain
  // disjoint levels, so emptiness here would indicate a partition
  // returning an empty (non-independent) set, which cannot happen.
  pdt_check(!Vectors.empty(), "merge of non-empty partition results is empty");
  Result.Vectors = std::move(Vectors);
  Result.Exact = AllExact && !Result.HasNonlinear;
  Result.TheVerdict = Result.Exact ? Verdict::Dependent : Verdict::Maybe;
  return Result;
}

} // namespace

namespace {

/// The containment boundary proper: collapse any failure raised by the
/// tests into the conservative all-directions dependence. Degradation
/// only ever widens the answer (a failure can never prove
/// independence), so soundness is preserved by construction.
DependenceTestResult
containedTestDependence(const std::vector<SubscriptPair> &Subscripts,
                        const LoopNestContext &Ctx, TestStats *Stats,
                        PairExplanation *Explain) {
  try {
    return testDependenceImpl(Subscripts, Ctx, Stats, Explain);
  } catch (const AnalysisError &E) {
    return degradedTestResult(Ctx.depth(), E.failure(), Stats);
  } catch (const std::exception &E) {
    return degradedTestResult(
        Ctx.depth(),
        AnalysisFailure{FailureKind::InternalInvariant, E.what()}, Stats);
  }
}

} // namespace

DependenceTestResult
pdt::testDependence(const std::vector<SubscriptPair> &Subscripts,
                    const LoopNestContext &Ctx, TestStats *Stats,
                    PairExplanation *Explain) {
  Span TestSpan("testDependence", "tester");
  // The persistent store sits beside the in-process memo: probed only
  // when active, never under --explain (a hit would skip the recorded
  // steps) and never with the arithmetic fault injector armed (hits
  // would renumber the injection sites between runs). Store failures
  // of any kind surface as misses, so this path cannot widen, narrow,
  // or crash the analysis.
  std::shared_ptr<ResultStore> Store;
  if (!Explain && !FaultInjector::armed())
    Store = ResultStore::active();
  if (!Store)
    return containedTestDependence(Subscripts, Ctx, Stats, Explain);
  std::optional<CanonicalPair> Q = ResultStore::canonicalize(Subscripts, Ctx);
  if (!Q)
    return containedTestDependence(Subscripts, Ctx, Stats, Explain);
  if (std::optional<DependenceTestResult> Hit = Store->lookup(*Q, Stats))
    return std::move(*Hit);
  TestStats Delta;
  DependenceTestResult Result =
      containedTestDependence(Subscripts, Ctx, &Delta, nullptr);
  if (Stats)
    Stats->merge(Delta);
  if (!Result.Degraded)
    Store->insert(*Q, Result, Delta);
  return Result;
}

//===----------------------------------------------------------------------===//
// Access-pair front end
//===----------------------------------------------------------------------===//

namespace {

/// Converts one access's subscript expression to affine form over the
/// *common* nest: indices of loops enclosing only this access become
/// fresh symbols (suffix "#src"/"#snk") ranging over their loop, since
/// they may take any value independently on each side.
std::optional<LinearExpr>
affineOverCommonNest(const Expr *Subscript, const ArrayAccess &Access,
                     const LoopNestContext &CommonCtx,
                     const SymbolRangeMap &Symbols, const char *Suffix,
                     SymbolRangeMap &ExtraRanges,
                     const std::set<std::string> *VaryingScalars) {
  std::set<std::string> OwnIndices;
  for (const DoLoop *L : Access.LoopStack)
    OwnIndices.insert(L->getIndexName());
  std::optional<LinearExpr> Linear = buildLinearExpr(Subscript, OwnIndices);
  if (!Linear)
    return std::nullopt;
  // A scalar assigned somewhere in the program is not a loop-invariant
  // symbol; the subscript is effectively nonlinear.
  if (VaryingScalars)
    for (const auto &[Name, Coeff] : Linear->symbolTerms())
      if (VaryingScalars->count(std::string(Name)))
        return std::nullopt;

  // Ranges of the access's own loops (for the renamed symbols).
  LoopNestContext OwnCtx(Access.LoopStack, Symbols);

  LinearExpr Result(Linear->getConstant());
  for (const auto &[Name, Coeff] : Linear->symbolTerms())
    Result = Result + LinearExpr::symbol(Name, Coeff);
  for (const auto &[Name, Coeff] : Linear->indexTerms()) {
    if (CommonCtx.isIndex(Name)) {
      Result = Result + LinearExpr::index(Name, Coeff);
      continue;
    }
    std::string Renamed = std::string(Name) + Suffix;
    Result = Result + LinearExpr::symbol(Renamed, Coeff);
    ExtraRanges[Renamed] = OwnCtx.indexRange(Name);
  }
  return Result;
}

} // namespace

std::set<std::string> pdt::collectVaryingScalars(const Program &P) {
  // Scalars assigned inside a loop (an unrecognized induction
  // variable) or assigned more than once are not loop-invariant
  // symbols; a single top-level definition (m = n - 1 before a nest)
  // is effectively a symbolic constant and stays usable.
  std::set<std::string> VaryingScalars;
  std::map<std::string, unsigned> DefCounts;
  auto CollectDefs = [&](auto &&Self, const Stmt *S, bool InLoop) -> void {
    if (const auto *A = dyn_cast<AssignStmt>(S)) {
      if (!A->isArrayAssign()) {
        if (InLoop || ++DefCounts[A->getScalarTarget()] > 1)
          VaryingScalars.insert(A->getScalarTarget());
      }
      return;
    }
    for (const Stmt *Child : cast<DoLoop>(S)->getBody())
      Self(Self, Child, /*InLoop=*/true);
  };
  for (const Stmt *S : P.TopLevel)
    CollectDefs(CollectDefs, S, /*InLoop=*/false);
  return VaryingScalars;
}

std::optional<PreparedPair>
pdt::prepareAccessPair(const ArrayAccess &A, const ArrayAccess &B,
                       const SymbolRangeMap &Symbols,
                       const std::set<std::string> *VaryingScalars) {
  assert(A.Ref && B.Ref && "null access");
  assert(A.Ref->getArrayName() == B.Ref->getArrayName() &&
         "testing accesses to different arrays");
  if (A.Ref->getNumDims() != B.Ref->getNumDims())
    return std::nullopt;

  std::vector<const DoLoop *> Common = commonLoops(A, B);
  LoopNestContext PreCtx(Common, Symbols);

  SymbolRangeMap AllSymbols = Symbols;
  PreparedPair Prepared;
  for (unsigned Dim = 0; Dim != A.Ref->getNumDims(); ++Dim) {
    std::optional<LinearExpr> Src =
        affineOverCommonNest(A.Ref->getSubscript(Dim), A, PreCtx, Symbols,
                             "#src", AllSymbols, VaryingScalars);
    std::optional<LinearExpr> Dst =
        affineOverCommonNest(B.Ref->getSubscript(Dim), B, PreCtx, Symbols,
                             "#snk", AllSymbols, VaryingScalars);
    if (!Src || !Dst) {
      Prepared.HasNonlinear = true;
      continue; // Contributes no information.
    }
    Prepared.Subscripts.emplace_back(std::move(*Src), std::move(*Dst), Dim);
  }
  for (const SubscriptPartition &P : partitionSubscripts(Prepared.Subscripts))
    if (!P.isSeparable())
      Prepared.HasCoupledGroup = true;

  // Rebuild the context including ranges for the renamed symbols.
  Prepared.Ctx = LoopNestContext(Common, AllSymbols);
  return Prepared;
}

DependenceTestResult
pdt::testPreparedAccessPair(const ArrayAccess &A, const ArrayAccess &B,
                            const std::optional<PreparedPair> &Prepared,
                            TestStats *Stats) {
  if (Stats) {
    ++Stats->ReferencePairs;
    unsigned Dims = std::min(A.Ref->getNumDims(), B.Ref->getNumDims());
    ++Stats->DimensionHistogram[std::min(Dims - 1, 3u)];
  }

  // Mismatched dimensionality (legal Fortran through equivalence-style
  // tricks): treat conservatively.
  if (!Prepared) {
    DependenceTestResult R;
    std::vector<const DoLoop *> Common = commonLoops(A, B);
    R.Vectors.assign(1, DependenceVector(Common.size()));
    return R;
  }
  if (Stats && Prepared->HasNonlinear)
    Stats->NonlinearSubscripts +=
        A.Ref->getNumDims() - Prepared->Subscripts.size();

  DependenceTestResult Result =
      testDependence(Prepared->Subscripts, Prepared->Ctx, Stats);
  Result.HasNonlinear = Prepared->HasNonlinear;
  if (Prepared->HasNonlinear && Result.TheVerdict == Verdict::Dependent)
    Result.TheVerdict = Verdict::Maybe;
  if (Prepared->HasNonlinear)
    Result.Exact = false;
  if (Stats && Result.isIndependent())
    ++Stats->IndependentPairs;
  return Result;
}

DependenceTestResult
pdt::testAccessPair(const ArrayAccess &A, const ArrayAccess &B,
                    const SymbolRangeMap &Symbols, TestStats *Stats,
                    const std::set<std::string> *VaryingScalars) {
  // Containment boundary for the lowering half: an overflow while
  // building the affine forms degrades the pair, mirroring what
  // testDependence does for failures inside the tests.
  std::optional<PreparedPair> Prepared;
  try {
    Prepared = prepareAccessPair(A, B, Symbols, VaryingScalars);
  } catch (const AnalysisError &E) {
    if (Stats) {
      ++Stats->ReferencePairs;
      unsigned Dims = std::min(A.Ref->getNumDims(), B.Ref->getNumDims());
      ++Stats->DimensionHistogram[std::min(Dims - 1, 3u)];
    }
    return degradedTestResult(commonLoops(A, B).size(), E.failure(), Stats);
  }
  return testPreparedAccessPair(A, B, Prepared, Stats);
}
