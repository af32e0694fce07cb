//===- core/Partition.cpp - Separability partitioning ---------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Partition.h"

#include "support/InlineVector.h"

#include <numeric>

using namespace pdt;

namespace {

/// Minimal union-find over subscript positions, inline for pairs of up
/// to eight subscripts.
class UnionFind {
public:
  explicit UnionFind(unsigned N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0u);
  }

  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void merge(unsigned A, unsigned B) {
    unsigned RA = find(A), RB = find(B);
    if (RA != RB)
      Parent[std::max(RA, RB)] = std::min(RA, RB);
  }

private:
  InlineVector<unsigned, 8> Parent;
};

} // namespace

/// True when \p A and \p B share an index name. Both sides of a
/// subscript pair are written over untagged names.
static bool sharesIndex(const SubscriptPair &A, const SubscriptPair &B) {
  for (const LinearExpr *EA : {&A.Src, &A.Dst})
    for (const auto &[NameA, CoeffA] : EA->indexTerms())
      for (const LinearExpr *EB : {&B.Src, &B.Dst})
        for (const auto &[NameB, CoeffB] : EB->indexTerms())
          if (NameA == NameB)
            return true;
  return false;
}

std::vector<SubscriptPartition>
pdt::partitionSubscripts(const std::vector<SubscriptPair> &Subscripts) {
  unsigned N = Subscripts.size();
  UnionFind UF(N);

  // Any two subscripts that mention the same index belong to the same
  // partition. Pairs have a handful of subscripts of a few terms each,
  // so comparing every pair of names beats building a name index.
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = 0; J != I; ++J)
      if (UF.find(J) != UF.find(I) &&
          sharesIndex(Subscripts[J], Subscripts[I]))
        UF.merge(J, I);

  // A partition's representative is its first position, so partitions
  // come out in first-position order.
  InlineVector<unsigned, 8> PartitionOf(N);
  unsigned NumPartitions = 0;
  for (unsigned I = 0; I != N; ++I)
    if (UF.find(I) == I)
      PartitionOf[I] = NumPartitions++;
  std::vector<SubscriptPartition> Result(NumPartitions);
  for (unsigned I = 0; I != N; ++I)
    Result[PartitionOf[UF.find(I)]].Positions.push_back(I);
  return Result;
}
