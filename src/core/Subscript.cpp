//===- core/Subscript.cpp - Subscript pairs and classification ------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Subscript.h"

#include "support/ErrorHandling.h"

using namespace pdt;

const char *pdt::subscriptClassName(SubscriptClass C) {
  switch (C) {
  case SubscriptClass::ZIV:
    return "ZIV";
  case SubscriptClass::SIV:
    return "SIV";
  case SubscriptClass::MIV:
    return "MIV";
  }
  pdt_unreachable("covered switch");
}

const char *pdt::subscriptShapeName(SubscriptShape S) {
  switch (S) {
  case SubscriptShape::ZIV:
    return "ZIV";
  case SubscriptShape::StrongSIV:
    return "strong SIV";
  case SubscriptShape::WeakZeroSIV:
    return "weak-zero SIV";
  case SubscriptShape::WeakCrossingSIV:
    return "weak-crossing SIV";
  case SubscriptShape::GeneralSIV:
    return "general SIV";
  case SubscriptShape::RDIV:
    return "RDIV";
  case SubscriptShape::GeneralMIV:
    return "MIV";
  }
  pdt_unreachable("covered switch");
}

std::set<std::string> SubscriptPair::indices() const {
  std::set<std::string> Names = Src.indexNames();
  for (const std::string &N : Dst.indexNames())
    Names.insert(N);
  return Names;
}

LinearExpr SubscriptPair::equation() const {
  // Src(i) - Dst(i') with sink indices tagged, as one merge.
  return LinearExpr::taggedDifference(Src, Dst, SinkTag);
}

SubscriptClass SubscriptPair::classify() const {
  return classifyEquation(equation());
}

SubscriptShape SubscriptPair::shape() const {
  return shapeOfEquation(equation());
}

/// Number of distinct untagged indices in \p Eq, without building the
/// name set.
static size_t numEquationIndices(const LinearExpr &Eq) {
  LinearExpr::TermRange Terms = Eq.indexTerms();
  size_t N = 0;
  for (size_t I = 0; I != Terms.size(); ++I) {
    std::string_view Base = baseName(Terms[I].first);
    bool Seen = false;
    for (size_t J = 0; J != I && !Seen; ++J)
      Seen = baseName(Terms[J].first) == Base;
    N += !Seen;
  }
  return N;
}

SubscriptClass pdt::classifyEquation(const LinearExpr &Eq) {
  size_t N = numEquationIndices(Eq);
  if (N == 0)
    return SubscriptClass::ZIV;
  if (N == 1)
    return SubscriptClass::SIV;
  return SubscriptClass::MIV;
}

SubscriptShape pdt::shapeOfEquation(const LinearExpr &Eq) {
  LinearExpr::TermRange Terms = Eq.indexTerms();
  switch (Terms.size()) {
  case 0:
    return SubscriptShape::ZIV;
  case 1:
    // A single occurrence of a single index: the other side's
    // coefficient is zero, which is exactly the weak-zero situation.
    return SubscriptShape::WeakZeroSIV;
  case 2: {
    const auto &[NameA, CoeffA] = Terms[0];
    const auto &[NameB, CoeffB] = Terms[1];
    if (baseName(NameA) != baseName(NameB))
      return SubscriptShape::RDIV;
    // Same index on both sides: the equation is
    // a1*i - a2*i' + c = 0, i.e. CoeffA = a1 and CoeffB = -a2 (terms
    // are ordered by name, so NameA = i and NameB = i').
    int64_t A1 = CoeffA;
    int64_t A2 = -CoeffB;
    if (A1 == A2)
      return SubscriptShape::StrongSIV;
    if (A1 == -A2)
      return SubscriptShape::WeakCrossingSIV;
    return SubscriptShape::GeneralSIV;
  }
  default: {
    if (numEquationIndices(Eq) == 1) {
      // Cannot happen with <= 2 terms handled above: a single base
      // index yields at most the pair {i, i'}.
      return SubscriptShape::GeneralSIV;
    }
    return SubscriptShape::GeneralMIV;
  }
  }
}
