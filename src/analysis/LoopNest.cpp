//===- analysis/LoopNest.cpp - Analyzed loop-nest context -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopNest.h"

#include "ir/AST.h"
#include "support/Failure.h"
#include "support/MathExtras.h"

#include <cassert>

using namespace pdt;

LoopNestContext::LoopNestContext(const std::vector<const DoLoop *> &TheLoops,
                                 SymbolRangeMap TheSymbols)
    : OwnedSymbols(std::move(TheSymbols)) {
  buildLevels(TheLoops);
}

LoopNestContext::LoopNestContext(std::vector<LoopBounds> TheLoops,
                                 SymbolRangeMap TheSymbols)
    : OwnedLoops(std::move(TheLoops)), OwnedSymbols(std::move(TheSymbols)) {
  computeIndexRanges();
}

LoopNestContext
LoopNestContext::overSharedSymbols(const std::vector<const DoLoop *> &Loops,
                                   const SymbolRangeMap &Shared) {
  LoopNestContext Ctx;
  Ctx.Symbols = &Shared;
  Ctx.buildLevels(Loops);
  return Ctx;
}

LoopNestContext LoopNestContext::prefixView(const LoopNestContext &Base,
                                            unsigned Depth,
                                            const SymbolOverlay &Extra) {
  assert(Depth <= Base.Depth && "prefix deeper than its base");
  assert(!Base.Extra && "views do not stack");
  LoopNestContext View;
  View.Levels = Base.Levels;
  View.Ranges = Base.Ranges;
  View.Depth = Depth;
  View.Symbols = Base.Symbols;
  View.Extra = &Extra;
  return View;
}

LoopNestContext::LoopNestContext(const LoopNestContext &O)
    : OwnedLoops(O.Levels, O.Levels + O.Depth),
      OwnedRanges(O.Ranges, O.Ranges + O.Depth), OwnedSymbols(*O.Symbols),
      Levels(OwnedLoops.data()), Ranges(OwnedRanges.data()), Depth(O.Depth),
      Symbols(&OwnedSymbols) {
  for (const auto &[Name, Range] : O.overlay())
    OwnedSymbols.insert_or_assign(Name, Range);
}

LoopNestContext::LoopNestContext(LoopNestContext &&O) noexcept {
  takeFrom(std::move(O));
}

LoopNestContext &LoopNestContext::operator=(const LoopNestContext &O) {
  if (this != &O)
    takeFrom(LoopNestContext(O));
  return *this;
}

LoopNestContext &LoopNestContext::operator=(LoopNestContext &&O) noexcept {
  if (this != &O)
    takeFrom(std::move(O));
  return *this;
}

void LoopNestContext::takeFrom(LoopNestContext &&O) {
  // Moving a vector keeps its buffer, so pointers into owned levels stay
  // valid; the owned map lives in the object and must be re-pointed.
  bool OwnLevels = O.Levels == O.OwnedLoops.data();
  bool OwnSymbols = O.Symbols == &O.OwnedSymbols;
  OwnedLoops = std::move(O.OwnedLoops);
  OwnedRanges = std::move(O.OwnedRanges);
  OwnedSymbols = std::move(O.OwnedSymbols);
  Extra = O.Extra;
  Levels = OwnLevels ? OwnedLoops.data() : O.Levels;
  Ranges = OwnLevels ? OwnedRanges.data() : O.Ranges;
  Depth = O.Depth;
  Symbols = OwnSymbols ? &OwnedSymbols : O.Symbols;
  O.OwnedLoops.clear();
  O.OwnedRanges.clear();
  O.Levels = O.OwnedLoops.data();
  O.Ranges = O.OwnedRanges.data();
  O.Depth = 0;
  O.Symbols = &O.OwnedSymbols;
  O.Extra = nullptr;
}

void LoopNestContext::buildLevels(const std::vector<const DoLoop *> &TheLoops) {
  // Outer indices are legal in inner bounds, so accumulate the index
  // set as we walk outside-in.
  std::set<std::string> OuterIndices;
  OwnedLoops.reserve(TheLoops.size());
  for (const DoLoop *L : TheLoops) {
    LoopBounds B;
    B.Index = L->getIndexName();
    std::optional<LinearExpr> Lower, Upper, Step;
    try {
      Lower = buildLinearExpr(L->getLower(), OuterIndices);
      Upper = buildLinearExpr(L->getUpper(), OuterIndices);
      Step = buildLinearExpr(L->getStep(), OuterIndices);
    } catch (const AnalysisError &) {
      // Overflow while folding a bound expression: the loop becomes
      // non-affine (an unbounded variable), which every test already
      // handles conservatively.
      Lower.reset();
    }
    if (Lower && Upper && Step && Step->isPureConstant() &&
        Step->getConstant() != 0) {
      B.Lower = std::move(*Lower);
      B.Upper = std::move(*Upper);
      B.Step = Step->getConstant();
    } else {
      B.Affine = false;
    }
    OuterIndices.insert(B.Index);
    OwnedLoops.push_back(std::move(B));
  }
  computeIndexRanges();
}

void LoopNestContext::computeIndexRanges() {
  Levels = OwnedLoops.data();
  Depth = OwnedLoops.size();
  OwnedRanges.clear();
  OwnedRanges.reserve(Depth);
  Ranges = OwnedRanges.data();
  // Paper section 4.3: evaluate the loop bounds from the outermost
  // loop inward, substituting the ranges already computed for outer
  // indices. The result is the maximal range of each index, which is
  // all the SIV tests need even for trapezoidal nests.
  for (unsigned Level = 0; Level != Depth; ++Level) {
    const LoopBounds &B = OwnedLoops[Level];
    if (!B.Affine) {
      OwnedRanges.push_back(Interval::full());
      continue;
    }
    Interval LowerRange = evaluateOver(B.Lower, Level);
    Interval UpperRange = evaluateOver(B.Upper, Level);
    Interval Range(LowerRange.lower(), UpperRange.upper());
    if (B.Step < 0) {
      // A downward loop runs from Lower down to Upper in Fortran "do
      // i = L, U, S" notation with S < 0; the value range endpoints
      // swap roles.
      Range = Interval(UpperRange.lower(), LowerRange.upper());
    }
    OwnedRanges.push_back(Range);
  }
}

Interval LoopNestContext::rangeAmong(std::string_view Name,
                                     unsigned NumLevels) const {
  // The innermost level of that name wins, as for a shadowing loop.
  for (unsigned Level = NumLevels; Level-- != 0;)
    if (Levels[Level].Index == Name)
      return Ranges[Level];
  return Interval::full();
}

Interval LoopNestContext::evaluateOver(const LinearExpr &E,
                                       unsigned NumLevels) const {
  Interval Result = Interval::point(E.getConstant());
  for (const auto &[Name, Coeff] : E.indexTerms())
    Result = Result + rangeAmong(Name, NumLevels).scale(Coeff);
  for (const auto &[Name, Coeff] : E.symbolTerms()) {
    const Interval *R = symbolRange(Name);
    Result = Result + (R ? *R : Interval::full()).scale(Coeff);
  }
  return Result;
}

std::optional<unsigned>
LoopNestContext::levelOf(std::string_view Name) const {
  for (unsigned I = 0; I != Depth; ++I)
    if (Levels[I].Index == Name)
      return I;
  return std::nullopt;
}

Interval LoopNestContext::indexRange(std::string_view Name) const {
  return rangeAmong(Name, Depth);
}

Interval LoopNestContext::distanceRange(std::string_view Name) const {
  Interval R = indexRange(Name);
  if (!R.isFinite())
    return Interval(0, std::nullopt);
  if (R.isEmpty())
    return Interval::empty();
  std::optional<int64_t> Extent = checkedSub(*R.upper(), *R.lower());
  if (!Extent)
    return Interval(0, std::nullopt);
  return Interval(0, *Extent);
}

const SymbolOverlay &LoopNestContext::overlay() const {
  static const SymbolOverlay None;
  return Extra ? *Extra : None;
}

const Interval *LoopNestContext::symbolRange(std::string_view Name) const {
  if (Extra)
    for (const auto &[ExtraName, Range] : *Extra)
      if (ExtraName == Name)
        return &Range;
  auto It = Symbols->find(Name);
  return It == Symbols->end() ? nullptr : &It->second;
}

Interval LoopNestContext::evaluate(const LinearExpr &E) const {
  return evaluateOver(E, Depth);
}

std::set<std::string> LoopNestContext::indexNameSet() const {
  std::set<std::string> Names;
  for (const LoopBounds &B : loops())
    Names.insert(B.Index);
  return Names;
}
