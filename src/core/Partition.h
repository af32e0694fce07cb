//===- core/Partition.h - Separability partitioning -------------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partitions the subscripts of a reference pair into separable
/// subscripts and minimal coupled groups (paper section 2.2 and step 1
/// of section 3). Two subscripts are coupled when they share a loop
/// index; a coupled group is minimal when it cannot be split into
/// subgroups with disjoint index sets. Implemented with a union-find
/// over subscript positions; index names are compared in place, as
/// views into the subscripts' terms.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_PARTITION_H
#define PDT_CORE_PARTITION_H

#include "core/Subscript.h"

#include <vector>

namespace pdt {

/// One partition: the subscript positions it contains (indices into
/// the original subscript vector), in increasing order.
struct SubscriptPartition {
  std::vector<unsigned> Positions;

  bool isSeparable() const { return Positions.size() == 1; }
};

/// Partitions \p Subscripts into minimal coupled groups. ZIV
/// subscripts (no indices) are vacuously separable and each form their
/// own partition. Partitions are returned in order of their first
/// subscript position, so output is deterministic.
std::vector<SubscriptPartition>
partitionSubscripts(const std::vector<SubscriptPair> &Subscripts);

} // namespace pdt

#endif // PDT_CORE_PARTITION_H
