//===- support/MathExtras.h - Integer math helpers --------------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer arithmetic used throughout the dependence tests: gcd,
/// extended gcd (for solving linear Diophantine equations, the core of
/// the exact SIV / RDIV tests), floor/ceil division, and
/// overflow-checked operations. Subscript coefficients in real programs
/// are tiny, but loop bounds are user input, so every test computes
/// with 64-bit integers and checks overflow explicitly.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_MATHEXTRAS_H
#define PDT_SUPPORT_MATHEXTRAS_H

#include <cstdint>
#include <optional>

namespace pdt {

/// Greatest common divisor of |A| and |B|; gcd(0, 0) == 0.
int64_t gcd64(int64_t A, int64_t B);

/// Least common multiple of |A| and |B|; returns std::nullopt on
/// overflow or when either input is zero.
std::optional<int64_t> lcm64(int64_t A, int64_t B);

/// Result of the extended Euclidean algorithm:
/// Gcd == A*CoeffA + B*CoeffB.
struct ExtendedGCDResult {
  int64_t Gcd;
  int64_t CoeffA;
  int64_t CoeffB;
};

/// Extended Euclidean algorithm. For A == B == 0 returns {0, 0, 0}.
/// Gcd is always non-negative.
ExtendedGCDResult extendedGCD(int64_t A, int64_t B);

/// Floor division: largest Q with Q*B <= A. B must be non-zero.
int64_t floorDiv(int64_t A, int64_t B);

/// Ceiling division: smallest Q with Q*B >= A. B must be non-zero.
int64_t ceilDiv(int64_t A, int64_t B);

/// True iff B divides A exactly (B != 0).
bool dividesExactly(int64_t A, int64_t B);

/// A + B, or std::nullopt on signed overflow.
inline std::optional<int64_t> checkedAdd(int64_t A, int64_t B) {
  int64_t Result;
  if (__builtin_add_overflow(A, B, &Result))
    return std::nullopt;
  return Result;
}

/// A - B, or std::nullopt on signed overflow.
inline std::optional<int64_t> checkedSub(int64_t A, int64_t B) {
  int64_t Result;
  if (__builtin_sub_overflow(A, B, &Result))
    return std::nullopt;
  return Result;
}

/// A * B, or std::nullopt on signed overflow.
inline std::optional<int64_t> checkedMul(int64_t A, int64_t B) {
  int64_t Result;
  if (__builtin_mul_overflow(A, B, &Result))
    return std::nullopt;
  return Result;
}

/// Sign of A as -1, 0, or +1.
inline int signOf(int64_t A) { return A < 0 ? -1 : (A > 0 ? 1 : 0); }

/// max(A, 0) ("positive part" a+ in Banerjee's inequalities).
inline int64_t positivePart(int64_t A) { return A > 0 ? A : 0; }

/// max(-A, 0) ("negative part" a- in Banerjee's inequalities;
/// note the result is non-negative, matching the paper's convention
/// a = a+ - a-).
inline int64_t negativePart(int64_t A) { return A < 0 ? -A : 0; }

} // namespace pdt

#endif // PDT_SUPPORT_MATHEXTRAS_H
