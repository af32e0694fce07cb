//===- core/Subscript.h - Subscript pairs and classification ----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *subscript* (paper section 1.5) is the pair of subscript
/// expressions in one dimension of two array references being tested.
/// This file defines the pair representation, the ZIV/SIV/MIV
/// complexity classification (section 2.3), and the tagged dependence
/// equation form used by the Delta test: source indices keep their
/// name, sink indices are renamed `i` -> `i'`, so one LinearExpr can
/// express mixed source/sink relations after constraint propagation.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_SUBSCRIPT_H
#define PDT_CORE_SUBSCRIPT_H

#include "ir/LinearExpr.h"

#include <set>
#include <string>
#include <string_view>

namespace pdt {

/// Complexity classification of a subscript pair (section 2.3).
enum class SubscriptClass {
  ZIV, ///< No loop index occurs in either expression.
  SIV, ///< Exactly one distinct index occurs (in either or both).
  MIV, ///< More than one distinct index occurs.
};

const char *subscriptClassName(SubscriptClass C);

/// Finer SIV/MIV shapes that select the exact test to apply
/// (section 4).
enum class SubscriptShape {
  ZIV,
  StrongSIV,       ///< <a*i + c1, a*i' + c2>, a != 0.
  WeakZeroSIV,     ///< One side's coefficient is zero.
  WeakCrossingSIV, ///< <a*i + c1, -a*i' + c2>.
  GeneralSIV,      ///< Any other <a1*i + c1, a2*i' + c2>.
  RDIV,            ///< <a1*i + c1, a2*j + c2>, distinct indices.
  GeneralMIV,
};

const char *subscriptShapeName(SubscriptShape S);

/// The tag appended to an index name for its sink-iteration instance.
inline constexpr std::string_view SinkTag = "'";

/// The name used for the sink-iteration instance of index \p Name in
/// tagged dependence equations.
inline std::string sinkName(std::string_view Name) {
  std::string S(Name);
  S += SinkTag;
  return S;
}

/// True when \p Name is a sink-tagged index name.
inline bool isSinkName(std::string_view Name) {
  return !Name.empty() && Name.back() == '\'';
}

/// Strips the sink tag (identity for untagged names).
inline std::string_view baseName(std::string_view Name) {
  if (isSinkName(Name))
    Name.remove_suffix(1);
  return Name;
}

/// One subscript position of a pair of references, already converted
/// to affine form. Src belongs to the dependence source candidate
/// (iteration vector i), Dst to the sink candidate (iteration vector
/// i'); both are written over the *untagged* index names.
struct SubscriptPair {
  LinearExpr Src;
  LinearExpr Dst;
  /// Dimension this pair came from, for reporting.
  unsigned Dim = 0;

  SubscriptPair() = default;
  SubscriptPair(LinearExpr Src, LinearExpr Dst, unsigned Dim = 0)
      : Src(std::move(Src)), Dst(std::move(Dst)), Dim(Dim) {}

  /// The distinct (untagged) indices occurring in either side.
  std::set<std::string> indices() const;

  SubscriptClass classify() const;
  SubscriptShape shape() const;

  /// The tagged dependence equation Src(i) - Dst(i') = 0, as a single
  /// LinearExpr whose sink index terms carry tagged names. A
  /// dependence exists iff the expression has a zero within the
  /// iteration space.
  LinearExpr equation() const;

  std::string str() const { return "<" + Src.str() + ", " + Dst.str() + ">"; }
};

/// Classification of a *tagged equation* (used inside the Delta test
/// after propagation may have rewritten it).
SubscriptClass classifyEquation(const LinearExpr &Eq);
SubscriptShape shapeOfEquation(const LinearExpr &Eq);

} // namespace pdt

#endif // PDT_CORE_SUBSCRIPT_H
