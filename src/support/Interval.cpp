//===- support/Interval.cpp - Possibly-unbounded integer intervals --------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Interval.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <cassert>

using namespace pdt;

/// Adds two finite bounds, saturating at the int64 range. Saturation
/// keeps interval arithmetic conservative: a saturated bound can only
/// widen an interval, never shrink it.
static int64_t saturatingAdd(int64_t A, int64_t B) {
  if (std::optional<int64_t> R = checkedAdd(A, B))
    return *R;
  return (A > 0) ? INT64_MAX : INT64_MIN;
}

static int64_t saturatingMul(int64_t A, int64_t B) {
  if (std::optional<int64_t> R = checkedMul(A, B))
    return *R;
  return (signOf(A) * signOf(B) > 0) ? INT64_MAX : INT64_MIN;
}

/// Negates a finite bound, saturating at INT64_MAX for INT64_MIN
/// (plain negation would be UB). Saturation only widens the interval,
/// which keeps downstream tests conservative.
static int64_t saturatingNeg(int64_t A) {
  return A == INT64_MIN ? INT64_MAX : -A;
}

std::optional<int64_t> Interval::size() const {
  if (!isFinite())
    return std::nullopt;
  if (isEmpty())
    return 0;
  // Hi >= Lo, so Hi - Lo can only overflow upwards.
  std::optional<int64_t> Extent = checkedSub(*Hi, *Lo);
  return Extent ? saturatingAdd(*Extent, 1) : INT64_MAX;
}

Interval Interval::operator+(const Interval &RHS) const {
  if (isEmpty() || RHS.isEmpty())
    return empty();
  Bound NewLo, NewHi;
  if (Lo && RHS.Lo)
    NewLo = saturatingAdd(*Lo, *RHS.Lo);
  if (Hi && RHS.Hi)
    NewHi = saturatingAdd(*Hi, *RHS.Hi);
  return Interval(NewLo, NewHi);
}

Interval Interval::operator-(const Interval &RHS) const {
  return *this + RHS.negate();
}

Interval Interval::negate() const {
  if (isEmpty())
    return empty();
  Bound NewLo, NewHi;
  if (Hi)
    NewLo = saturatingNeg(*Hi);
  if (Lo)
    NewHi = saturatingNeg(*Lo);
  return Interval(NewLo, NewHi);
}

Interval Interval::scale(int64_t Factor) const {
  if (isEmpty())
    return empty();
  if (Factor == 0)
    return point(0);
  Bound A, B;
  if (Lo)
    A = saturatingMul(*Lo, Factor);
  if (Hi)
    B = saturatingMul(*Hi, Factor);
  if (Factor > 0)
    return Interval(A, B);
  // Negative factor swaps the roles of the endpoints; an infinite
  // endpoint stays infinite on the opposite side.
  return Interval(B, A);
}

Interval Interval::intersect(const Interval &RHS) const {
  if (isEmpty() || RHS.isEmpty())
    return empty();
  Bound NewLo = Lo;
  if (RHS.Lo && (!NewLo || *RHS.Lo > *NewLo))
    NewLo = RHS.Lo;
  Bound NewHi = Hi;
  if (RHS.Hi && (!NewHi || *RHS.Hi < *NewHi))
    NewHi = RHS.Hi;
  return Interval(NewLo, NewHi);
}

Interval Interval::hull(const Interval &RHS) const {
  if (isEmpty())
    return RHS;
  if (RHS.isEmpty())
    return *this;
  Bound NewLo;
  if (Lo && RHS.Lo)
    NewLo = std::min(*Lo, *RHS.Lo);
  Bound NewHi;
  if (Hi && RHS.Hi)
    NewHi = std::max(*Hi, *RHS.Hi);
  return Interval(NewLo, NewHi);
}

std::string Interval::str() const {
  if (isEmpty())
    return "[empty]";
  std::string S = "[";
  S += Lo ? std::to_string(*Lo) : "-inf";
  S += ", ";
  S += Hi ? std::to_string(*Hi) : "+inf";
  S += "]";
  return S;
}
