//===- support/MathExtras.cpp - Integer math helpers ----------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/MathExtras.h"

#include <cassert>
#include <cstdlib>

using namespace pdt;

int64_t pdt::gcd64(int64_t A, int64_t B) {
  // Avoid UB on INT64_MIN by working with unsigned magnitudes.
  uint64_t UA = A < 0 ? 0 - static_cast<uint64_t>(A) : static_cast<uint64_t>(A);
  uint64_t UB = B < 0 ? 0 - static_cast<uint64_t>(B) : static_cast<uint64_t>(B);
  while (UB != 0) {
    uint64_t T = UA % UB;
    UA = UB;
    UB = T;
  }
  assert(UA <= static_cast<uint64_t>(INT64_MAX) &&
         "gcd magnitude exceeds int64 range");
  return static_cast<int64_t>(UA);
}

std::optional<int64_t> pdt::lcm64(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return std::nullopt;
  int64_t G = gcd64(A, B);
  int64_t AbsA = A < 0 ? -A : A;
  int64_t AbsB = B < 0 ? -B : B;
  return checkedMul(AbsA / G, AbsB);
}

ExtendedGCDResult pdt::extendedGCD(int64_t A, int64_t B) {
  // Iterative extended Euclid on the signed values; fix up signs at the
  // end so the reported gcd is non-negative.
  int64_t OldR = A, R = B;
  int64_t OldS = 1, S = 0;
  int64_t OldT = 0, T = 1;
  while (R != 0) {
    int64_t Q = OldR / R;
    int64_t Tmp = OldR - Q * R;
    OldR = R;
    R = Tmp;
    Tmp = OldS - Q * S;
    OldS = S;
    S = Tmp;
    Tmp = OldT - Q * T;
    OldT = T;
    T = Tmp;
  }
  if (OldR < 0) {
    OldR = -OldR;
    OldS = -OldS;
    OldT = -OldT;
  }
  return {OldR, OldS, OldT};
}

int64_t pdt::floorDiv(int64_t A, int64_t B) {
  assert(B != 0 && "floorDiv by zero");
  int64_t Q = A / B;
  int64_t Rem = A % B;
  if (Rem != 0 && ((Rem < 0) != (B < 0)))
    --Q;
  return Q;
}

int64_t pdt::ceilDiv(int64_t A, int64_t B) {
  assert(B != 0 && "ceilDiv by zero");
  int64_t Q = A / B;
  int64_t Rem = A % B;
  if (Rem != 0 && ((Rem < 0) == (B < 0)))
    ++Q;
  return Q;
}

bool pdt::dividesExactly(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  return B == -1 || A % B == 0; // INT64_MIN % -1 overflows.
}

