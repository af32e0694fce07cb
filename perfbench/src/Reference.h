//===- perfbench/src/Reference.h - The ops' reference -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference of a workload: per program, the digest every op's output
/// must equal, checked in turn against the committed digests of
/// expected.json and, on kernels, against ground truth (the brute-force
/// Oracle per access pair and the Interpreter's dynamic conflicts).
///
/// A measured run computes its reference in a child process started with
/// PDT_BATCH=off, so the timed ops (batched wherever the pair count allows)
/// are compared with scalar routing, and the reference phase stays out of
/// the measured process.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Inputs.h"

#include "support/Json.h"

#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Reference {
  /// Per program: the quick digest of its analysis, which every op (and
  /// every traced op) is compared with.
  std::vector<uint64_t> Quick;
  /// Per program: the committed-form digest (serve: of the response
  /// body, which every request's body is compared with).
  std::vector<uint64_t> Full;
  /// Per program: the reference itself failed a check; every op on it
  /// counts as failed.
  std::vector<bool> Bad;
  std::vector<std::string> Problems;
  /// kernels: kernels and pairs with brute-force ground truth, and
  /// kernels whose execution the Interpreter traced.
  uint64_t OracleKernels = 0, OraclePairs = 0, OracleExecuted = 0;

  void fail(size_t P, std::string Why);
  /// Digest over every program's committed-form digest.
  uint64_t aggregate() const;
};

/// Computes the reference of \p In in this process, in whatever batch
/// mode the environment selects. \p Expected (may be null) is the parsed
/// expected.json. \p Corrupt drops the first edge of every kernel's
/// reference graph before the Oracle check, which must then fail the run
/// (a self-test of the check).
Reference buildReference(const Inputs &In, const pdt::json::Value *Expected,
                         bool Corrupt);

/// The reference as the child process prints it, and back.
void printReference(const Reference &Ref, std::ostream &Out);
std::optional<Reference> parseReference(const std::string &Text,
                                        size_t Programs);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
