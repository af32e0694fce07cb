//===- driver/Analyzer.cpp - End-to-end analysis pipeline -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Analyzer.h"

#include "analysis/InductionSubstitution.h"
#include "analysis/Normalization.h"
#include "core/ResultStore.h"
#include "support/BuildInfo.h"
#include "support/Casting.h"
#include "support/Env.h"

using namespace pdt;

namespace {

/// Collects every variable name that is not bound as a loop index
/// anywhere, i.e. the symbolic constants of the program.
void collectSymbols(const Stmt *S, std::set<std::string> &LoopIndices,
                    std::set<std::string> &Names) {
  auto WalkExpr = [&Names](auto &&Self, const Expr *E) -> void {
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
      return;
    case Expr::Kind::VarRef:
      Names.insert(cast<VarRef>(E)->getName());
      return;
    case Expr::Kind::Unary:
      Self(Self, cast<UnaryExpr>(E)->getOperand());
      return;
    case Expr::Kind::Binary:
      Self(Self, cast<BinaryExpr>(E)->getLHS());
      Self(Self, cast<BinaryExpr>(E)->getRHS());
      return;
    case Expr::Kind::ArrayElement:
      for (const Expr *Sub : cast<ArrayElement>(E)->getSubscripts())
        Self(Self, Sub);
      return;
    }
  };
  if (const auto *A = dyn_cast<AssignStmt>(S)) {
    if (A->isArrayAssign())
      WalkExpr(WalkExpr, A->getArrayTarget());
    WalkExpr(WalkExpr, A->getValue());
    return;
  }
  const auto *L = cast<DoLoop>(S);
  LoopIndices.insert(L->getIndexName());
  WalkExpr(WalkExpr, L->getLower());
  WalkExpr(WalkExpr, L->getUpper());
  WalkExpr(WalkExpr, L->getStep());
  for (const Stmt *Child : L->getBody())
    collectSymbols(Child, LoopIndices, Names);
}

/// Opens the PDT_STORE-armed persistent store for this option set, if
/// any. Idempotent per (directory, fingerprint); a change in either
/// reopens, which quarantines every segment of the other generation
/// (full invalidation on version/options skew).
void ensureEnvResultStore(const AnalyzerOptions &Options) {
  std::optional<std::string> Mode =
      envChoice("PDT_STORE", {"1", "0", "on", "off"});
  if (!Mode || *Mode == "0" || *Mode == "off")
    return;
  std::string Dir = envPath("PDT_STORE_DIR").value_or(".pdt-store");
  std::string Gen = analyzerOptionsFingerprint(Options);
  if (std::shared_ptr<ResultStore> Active = ResultStore::active())
    if (Active->directory() == Dir && Active->generation() == Gen)
      return;
  ResultStore::activate(Dir, Gen);
}

} // namespace

std::string pdt::analyzerOptionsFingerprint(const AnalyzerOptions &Options) {
  std::string F = std::string(AnalyzerVersion) + ";";
  F += "norm=";
  F += Options.Normalize ? '1' : '0';
  F += ";subst=";
  F += Options.SubstituteIVs ? '1' : '0';
  F += ";default=";
  F += Options.DefaultSymbolRange.str();
  F += ";input=";
  F += Options.IncludeInputDeps ? '1' : '0';
  F += ";fmrows=";
  F += std::to_string(Options.Budget.MaxFMRows);
  F += ";fmsteps=";
  F += std::to_string(Options.Budget.MaxFMSteps);
  F += ";syms=";
  for (const auto &[Name, Range] : Options.Symbols) {
    F += Name;
    F += '=';
    F += Range.str();
    F += ';';
  }
  return F;
}

AnalysisResult pdt::analyzeProgram(Program P, const AnalyzerOptions &Options) {
  ensureEnvResultStore(Options);
  AnalysisResult Result;
  Result.Parsed = true;

  // Each rewriting pass is a containment boundary: a pass that fails
  // (e.g. coefficient overflow while folding a bound expression) is
  // skipped, analysis continues on the last good program — the
  // unrewritten form is always a legal, merely less precise, input.
  Program Current = std::move(P);
  if (Options.Normalize) {
    try {
      Current = normalizeLoops(Current);
    } catch (const AnalysisError &E) {
      Result.Failures.push_back(E.failure());
    }
  }
  if (Options.SubstituteIVs) {
    try {
      Current = substituteInductionVariables(Current);
    } catch (const AnalysisError &E) {
      Result.Failures.push_back(E.failure());
    }
  }
  Result.Prog = std::make_unique<Program>(std::move(Current));

  // Assemble symbol ranges: explicit assumptions win; every other
  // non-index name gets the default range.
  SymbolRangeMap Symbols = Options.Symbols;
  std::set<std::string> LoopIndices, Names;
  for (const Stmt *S : Result.Prog->TopLevel)
    collectSymbols(S, LoopIndices, Names);
  for (const std::string &Name : Names) {
    if (LoopIndices.count(Name))
      continue;
    Symbols.try_emplace(Name, Options.DefaultSymbolRange);
  }

  Result.Graph = DependenceGraph::build(*Result.Prog, Symbols, &Result.Stats,
                                        Options.IncludeInputDeps,
                                        Options.NumThreads, &Options.Budget);
  Result.ResolvedSymbols = std::move(Symbols);
  return Result;
}

AnalysisResult pdt::analyzeSource(const std::string &Source,
                                  const std::string &Name,
                                  const AnalyzerOptions &Options) {
  ParseResult Parsed = parseProgram(Source, Name);
  if (!Parsed.succeeded()) {
    AnalysisResult Result;
    Result.Diagnostics = std::move(Parsed.Diagnostics);
    std::string Where = Name;
    if (!Result.Diagnostics.empty()) {
      Where += ": ";
      Where += Result.Diagnostics.front().Message;
    }
    Result.Failures.push_back(
        AnalysisFailure{FailureKind::MalformedInput, std::move(Where)});
    return Result;
  }
  return analyzeProgram(std::move(*Parsed.Prog), Options);
}
