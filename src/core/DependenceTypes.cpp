//===- core/DependenceTypes.cpp - Directions, vectors, verdicts -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DependenceTypes.h"

#include "support/ErrorHandling.h"
#include "support/Profile.h"

#include <cassert>

using namespace pdt;

std::string pdt::directionSetString(DirectionSet Dirs) {
  switch (Dirs) {
  case DirNone:
    return "0";
  case DirLT:
    return "<";
  case DirEQ:
    return "=";
  case DirGT:
    return ">";
  case DirLT | DirEQ:
    return "<=";
  case DirGT | DirEQ:
    return ">=";
  case DirLT | DirGT:
    return "<>";
  case DirAll:
    return "*";
  }
  pdt_unreachable("invalid direction set");
}

std::optional<unsigned> DependenceVector::firstNonEqualLevel() const {
  for (unsigned I = 0, E = Directions.size(); I != E; ++I)
    if (Directions[I] != DirEQ)
      return I;
  return std::nullopt;
}

DependenceVector
DependenceVector::intersectWith(const DependenceVector &RHS) const {
  assert(depth() == RHS.depth() && "intersecting vectors of unequal depth");
  DependenceVector Result = *this;
  for (unsigned I = 0, E = depth(); I != E; ++I) {
    Result.Directions[I] &= RHS.Directions[I];
    if (RHS.Distances[I]) {
      if (Result.Distances[I] && *Result.Distances[I] != *RHS.Distances[I])
        Result.Directions[I] = DirNone; // Contradictory exact distances.
      else
        Result.Distances[I] = RHS.Distances[I];
    }
    // An exact distance must stay consistent with the direction set.
    if (Result.Distances[I] &&
        !(Result.Directions[I] & directionForDistance(*Result.Distances[I])))
      Result.Directions[I] = DirNone;
    else if (Result.Distances[I])
      Result.Directions[I] &= directionForDistance(*Result.Distances[I]);
  }
  return Result;
}

std::string DependenceVector::str() const {
  std::string S = "(";
  for (unsigned I = 0, E = depth(); I != E; ++I) {
    if (I)
      S += ", ";
    if (Distances[I])
      S += std::to_string(*Distances[I]);
    else
      S += directionSetString(Directions[I]);
  }
  S += ")";
  return S;
}

void pdt::refineVectorSet(std::vector<DependenceVector> &Set,
                          const DependenceVector &Filter) {
  size_t Kept = 0;
  for (DependenceVector &V : Set) {
    DependenceVector Refined = V.intersectWith(Filter);
    if (!Refined.isEmpty())
      Set[Kept++] = Refined;
  }
  Set.resize(Kept);
}

void pdt::intersectVectorSets(std::vector<DependenceVector> &Vectors,
                              const std::vector<DependenceVector> &Set) {
  if (Set.size() == 1) {
    refineVectorSet(Vectors, Set.front());
    return;
  }
  std::vector<DependenceVector> Out;
  for (const DependenceVector &V : Vectors) {
    for (const DependenceVector &F : Set) {
      DependenceVector Combined = V.intersectWith(F);
      if (!Combined.isEmpty())
        Out.push_back(std::move(Combined));
    }
  }
  Vectors = std::move(Out);
}

const char *pdt::testKindName(TestKind K) {
  switch (K) {
  case TestKind::ZIV:
    return "ZIV";
  case TestKind::SymbolicZIV:
    return "symbolic ZIV";
  case TestKind::StrongSIV:
    return "strong SIV";
  case TestKind::WeakZeroSIV:
    return "weak-zero SIV";
  case TestKind::WeakCrossingSIV:
    return "weak-crossing SIV";
  case TestKind::ExactSIV:
    return "exact SIV";
  case TestKind::SymbolicSIV:
    return "symbolic SIV";
  case TestKind::RDIV:
    return "RDIV";
  case TestKind::GCD:
    return "GCD";
  case TestKind::Banerjee:
    return "Banerjee";
  case TestKind::Delta:
    return "Delta";
  case TestKind::SubscriptBySubscript:
    return "subscript-by-subscript";
  case TestKind::FourierMotzkin:
    return "Fourier-Motzkin";
  case TestKind::MultidimensionalGCD:
    return "multidimensional GCD";
  case TestKind::Power:
    return "Power";
  case TestKind::Oracle:
    return "oracle";
  case TestKind::EmptyNest:
    return "empty nest";
  }
  pdt_unreachable("covered switch");
}

namespace {
/// Names core's TestKind span tags in every profile, PDT_PROFILE's
/// included. Installed from this file because every binary that
/// analyses links it for the dependence vectors.
const char *kindTagName(int Tag) {
  if (Tag < 0 || Tag >= static_cast<int>(NumTestKinds))
    return nullptr;
  return testKindName(static_cast<TestKind>(Tag));
}
[[maybe_unused]] const bool KindNamerInstalled =
    (Profile::setTagNamer(kindTagName), true);
} // namespace

const char *pdt::dependenceKindName(DependenceKind K) {
  switch (K) {
  case DependenceKind::Flow:
    return "flow";
  case DependenceKind::Anti:
    return "anti";
  case DependenceKind::Output:
    return "output";
  case DependenceKind::Input:
    return "input";
  }
  pdt_unreachable("covered switch");
}
