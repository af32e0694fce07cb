//===- core/DependenceTypes.h - Directions, vectors, verdicts ---*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of dependence testing: direction sets, distance /
/// direction vectors, test identities, and test verdicts. Shared by
/// every test and by the drivers.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_DEPENDENCETYPES_H
#define PDT_CORE_DEPENDENCETYPES_H

#include "support/InlineVector.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pdt {

//===----------------------------------------------------------------------===//
// Directions
//===----------------------------------------------------------------------===//

/// A set of dependence directions for one loop level, as a bitmask.
/// '<' means the source iteration precedes the sink iteration on this
/// level (positive distance), '=' equal, '>' follows.
enum Direction : uint8_t {
  DirNone = 0,
  DirLT = 1,
  DirEQ = 2,
  DirGT = 4,
  DirAll = DirLT | DirEQ | DirGT, ///< The '*' direction.
};

using DirectionSet = uint8_t;

/// Renders a direction set as "<", "=", ">", "*", "<=", etc.
std::string directionSetString(DirectionSet Dirs);

/// Direction set consistent with a known dependence distance.
inline DirectionSet directionForDistance(int64_t Distance) {
  if (Distance > 0)
    return DirLT;
  if (Distance < 0)
    return DirGT;
  return DirEQ;
}

//===----------------------------------------------------------------------===//
// Dependence vectors
//===----------------------------------------------------------------------===//

/// A (possibly partial) dependence vector: per common-loop level, the
/// set of legal directions and, when known exactly, the distance. One
/// DependenceVector with multi-direction levels denotes the Cartesian
/// product of its per-level sets; a result is a *set* of vectors when
/// cross-level correlation matters (e.g. crossing dependences).
///
/// Both per-level arrays hold up to InlineLevels levels inside the
/// vector, so a vector over a nest of at most that depth makes no heap
/// allocation; deeper nests spill.
struct DependenceVector {
  static constexpr unsigned InlineLevels = 4;
  InlineVector<DirectionSet, InlineLevels> Directions;
  InlineVector<std::optional<int64_t>, InlineLevels> Distances;

  DependenceVector() = default;

  /// The all-'*' vector of \p Depth levels.
  explicit DependenceVector(unsigned Depth)
      : Directions(Depth, DirAll), Distances(Depth) {}

  unsigned depth() const { return Directions.size(); }

  /// True when some level has an empty direction set (no dependence
  /// can satisfy this vector).
  bool isEmpty() const {
    for (DirectionSet D : Directions)
      if (D == DirNone)
        return true;
    return false;
  }

  /// True when every level is exactly '='.
  bool isAllEqual() const {
    for (DirectionSet D : Directions)
      if (D != DirEQ)
        return false;
    return true;
  }

  /// The outermost level whose direction set is not exactly '='
  /// (0-based), i.e. the candidate carrier level. nullopt when all '='.
  std::optional<unsigned> firstNonEqualLevel() const;

  /// Intersects per-level with \p RHS (same depth required).
  DependenceVector intersectWith(const DependenceVector &RHS) const;

  /// Renders e.g. "(<, =, *)" or, with distances, "(1, 0, *)".
  std::string str() const;
};

/// Refines a set of vectors in place by intersecting each with
/// \p Filter and dropping the ones that become empty.
void refineVectorSet(std::vector<DependenceVector> &Set,
                     const DependenceVector &Filter);

/// Replaces \p Vectors by the non-empty intersections of each of its
/// members with each member of \p Set, in that order (the merge of
/// two partitions' results). A one-vector \p Set refines in place.
void intersectVectorSets(std::vector<DependenceVector> &Vectors,
                         const std::vector<DependenceVector> &Set);

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

/// Identity of each dependence test in the suite, for statistics
/// (paper Tables 2 and 3) and provenance of verdicts.
enum class TestKind {
  ZIV,
  SymbolicZIV,
  StrongSIV,
  WeakZeroSIV,
  WeakCrossingSIV,
  ExactSIV,
  SymbolicSIV,
  RDIV,
  GCD,
  Banerjee,
  Delta,
  // Baselines (not part of the practical suite).
  SubscriptBySubscript,
  FourierMotzkin,
  MultidimensionalGCD,
  Power,
  Oracle,
  /// Not a subscript test: the nest has a loop that cannot iterate, so
  /// no statement instance exists and every pair is independent.
  EmptyNest,
};

/// Display name of a test ("strong SIV", "Banerjee", ...).
const char *testKindName(TestKind K);

/// The plain-int attribution tag stored on trace spans (support's
/// pdt::Span cannot name TestKind; see support/Profile.h).
constexpr int testKindTag(TestKind K) { return static_cast<int>(K); }

/// Number of TestKind enumerators (for counter arrays).
constexpr unsigned NumTestKinds = 17;

//===----------------------------------------------------------------------===//
// Verdicts
//===----------------------------------------------------------------------===//

/// Three-valued test verdict.
enum class Verdict {
  Independent, ///< Proven: no dependence exists.
  Dependent,   ///< Proven: a dependence exists (test was exact).
  Maybe,       ///< Dependence assumed; the test could not decide.
};

/// Kinds of data dependence between two references (section 2.1 of the
/// paper; "input" is read-read, tracked for completeness but not
/// reported by default).
enum class DependenceKind { Flow, Anti, Output, Input };

const char *dependenceKindName(DependenceKind K);

} // namespace pdt

#endif // PDT_CORE_DEPENDENCETYPES_H
