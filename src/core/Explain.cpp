//===- core/Explain.cpp - Per-pair decision explanations ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Explain.h"

#include "core/DependenceGraph.h"
#include "ir/AccessCollector.h"
#include "ir/PrettyPrinter.h"
#include "support/Failure.h"

using namespace pdt;

std::string PairExplanation::str() const {
  std::string Out;
  Out += SrcRef + " -> " + SnkRef;
  Out += "  [common nest:";
  if (LoopIndices.empty())
    Out += " none";
  for (const std::string &Index : LoopIndices)
    Out += " " + Index;
  Out += "]\n";

  if (DimMismatch) {
    Out += "  references have mismatched dimensionality; nothing is "
           "testable\n";
    Out += "  verdict: assumed dependent in all directions (conservative)\n";
    return Out;
  }
  if (HasNonlinear)
    Out += "  note: some dimension is nonlinear and contributes no "
           "information; the verdict stays conservative\n";

  for (unsigned I = 0, E = Steps.size(); I != E; ++I) {
    const ExplainStep &S = Steps[I];
    Out += "  partition " + std::to_string(I + 1) + " (";
    Out += S.Coupled ? "coupled group" : "separable";
    Out += ", dim";
    for (unsigned Dim : S.Dims)
      Out += " " + std::to_string(Dim + 1);
    Out += "):";
    for (const std::string &Sub : S.Subscripts)
      Out += " " + Sub;
    Out += "\n";
    if (!S.Coupled)
      Out += "    shape: " + std::string(subscriptShapeName(S.Shape)) + "\n";
    Out += "    test applied: " + std::string(testKindName(S.Applied)) + "\n";
    if (!S.Constraints.empty())
      Out += "    constraints: " + S.Constraints + "\n";
    if (!S.Detail.empty()) {
      // Indent every line of the detail block (the Delta log is
      // multi-line).
      Out += "    ";
      for (char C : S.Detail) {
        Out += C;
        if (C == '\n')
          Out += "    ";
      }
      Out += "\n";
    }
    Out += "    partition verdict: ";
    switch (S.StepVerdict) {
    case Verdict::Independent:
      Out += "independent (ends the algorithm)";
      break;
    case Verdict::Dependent:
      Out += S.Exact ? "dependent (exact)" : "dependent";
      break;
    case Verdict::Maybe:
      Out += S.Exact ? "undecided" : "undecided (conservative)";
      break;
    }
    Out += "\n";
  }

  Out += "  verdict: ";
  if (Degraded) {
    Out += "degraded";
    if (Failure)
      Out += " (" + Failure->str() + ")";
    Out += " — assumed dependent in all directions; a contained failure "
           "only ever widens the answer\n";
  } else if (FinalVerdict == Verdict::Independent) {
    Out += "independent — proven by the " +
           std::string(testKindName(DecidedBy)) + " test\n";
  } else {
    Out += FinalVerdict == Verdict::Dependent
               ? "dependent (exact — every partition resolved exactly)"
               : "assumed dependent (conservative)";
    Out += ", merged vectors:";
    for (const std::string &V : Vectors)
      Out += " " + V;
    Out += "\n";
  }
  return Out;
}

PairExplanation
pdt::explainAccessPair(const ArrayAccess &A, const ArrayAccess &B,
                       const SymbolRangeMap &Symbols,
                       const std::set<std::string> *VaryingScalars) {
  PairExplanation Ex;
  Ex.SrcRef = exprToString(A.Ref);
  Ex.SnkRef = exprToString(B.Ref);
  for (const DoLoop *Loop : commonLoops(A, B))
    Ex.LoopIndices.push_back(Loop->getIndexName());

  // Mirror testAccessPair's containment: a failure while lowering
  // degrades the pair, and the report says so.
  std::optional<PreparedPair> Prepared;
  try {
    Prepared = prepareAccessPair(A, B, Symbols, VaryingScalars);
  } catch (const AnalysisError &E) {
    Ex.Degraded = true;
    Ex.Failure = E.failure();
    Ex.FinalVerdict = Verdict::Maybe;
    Ex.Vectors.push_back(DependenceVector(Ex.LoopIndices.size()).str());
    return Ex;
  }
  if (!Prepared) {
    Ex.DimMismatch = true;
    Ex.FinalVerdict = Verdict::Maybe;
    Ex.Vectors.push_back(DependenceVector(Ex.LoopIndices.size()).str());
    return Ex;
  }
  Ex.HasNonlinear = Prepared->HasNonlinear;

  // Run the tester with the recorder attached. This bypasses the memo
  // cache on purpose: explanations must re-derive the decision, not
  // replay a cached verdict.
  DependenceTestResult Result =
      testDependence(Prepared->Subscripts, Prepared->Ctx, nullptr, &Ex);
  if (Prepared->HasNonlinear && Result.TheVerdict == Verdict::Dependent)
    Result.TheVerdict = Verdict::Maybe;
  if (Prepared->HasNonlinear)
    Result.Exact = false;

  Ex.FinalVerdict = Result.TheVerdict;
  Ex.DecidedBy = Result.DecidedBy;
  Ex.Exact = Result.Exact;
  Ex.Degraded = Result.Degraded;
  Ex.Failure = Result.Failure;
  for (const DependenceVector &V : Result.Vectors)
    Ex.Vectors.push_back(V.str());
  return Ex;
}

std::string pdt::explainProgram(const Program &P,
                                const SymbolRangeMap &Symbols,
                                bool IncludeInput) {
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> VaryingScalars = collectVaryingScalars(P);

  std::vector<std::pair<unsigned, unsigned>> Pairs =
      enumerateAccessPairs(Accesses, IncludeInput);

  std::string Out;
  unsigned N = 0;
  for (auto [I, J] : Pairs) {
    Out += "pair " + std::to_string(++N) + ": ";
    Out +=
        explainAccessPair(Accesses[I], Accesses[J], Symbols, &VaryingScalars)
            .str();
    Out += "\n";
  }
  if (Pairs.empty())
    Out += "no testable access pairs\n";
  return Out;
}
