//===- core/Oracle.cpp - Brute-force dependence ground truth --------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Oracle.h"

#include "support/MathExtras.h"
#include "support/Trace.h"

#include <cassert>
#include <limits>
#include <map>

using namespace pdt;

namespace {

/// Evaluates an affine expression at a concrete iteration point;
/// fails on symbol terms and on int64 overflow (the fuzzer feeds
/// near-INT64_MAX coefficients through here).
std::optional<int64_t>
evalAt(const LinearExpr &E, const std::map<std::string, int64_t> &Values) {
  if (!E.symbolTerms().empty())
    return std::nullopt;
  int64_t V = E.getConstant();
  for (const auto &[Name, Coeff] : E.indexTerms()) {
    auto It = Values.find(std::string(Name));
    if (It == Values.end())
      return std::nullopt;
    std::optional<int64_t> Term = checkedMul(Coeff, It->second);
    if (!Term)
      return std::nullopt;
    std::optional<int64_t> Sum = checkedAdd(V, *Term);
    if (!Sum)
      return std::nullopt;
    V = *Sum;
  }
  return V;
}

/// Enumerates every iteration vector of the nest (respecting
/// outer-index-dependent bounds) and invokes Fn.
template <typename CallbackT>
bool forEachIteration(const LoopNestContext &Ctx, unsigned Level,
                      std::map<std::string, int64_t> &Values, CallbackT &&Fn) {
  if (Level == Ctx.depth())
    return Fn(Values);
  const LoopBounds &B = Ctx.loop(Level);
  if (!B.Affine || B.Step != 1)
    return false;
  std::optional<int64_t> Lo = evalAt(B.Lower, Values);
  std::optional<int64_t> Hi = evalAt(B.Upper, Values);
  if (!Lo || !Hi)
    return false;
  for (int64_t I = *Lo; I <= *Hi;) {
    Values[B.Index] = I;
    if (!forEachIteration(Ctx, Level + 1, Values,
                          std::forward<CallbackT>(Fn)))
      return false;
    std::optional<int64_t> Next = checkedAdd(I, 1);
    if (!Next)
      break; // I == INT64_MAX: the bound check cannot pass again.
    I = *Next;
  }
  Values.erase(B.Index);
  return true;
}

} // namespace

std::optional<OracleResult>
pdt::enumerateDependences(const std::vector<SubscriptPair> &Subscripts,
                          const LoopNestContext &Ctx, uint64_t MaxPairs) {
  Span OracleSpan("Oracle::enumerateDependences", "oracle",
                  testKindTag(TestKind::Oracle));
  for (const SubscriptPair &S : Subscripts)
    if (!S.Src.symbolTerms().empty() || !S.Dst.symbolTerms().empty())
      return std::nullopt;

  OracleResult Result;
  uint64_t Budget = MaxPairs;

  std::map<std::string, int64_t> SrcValues;
  bool OK = forEachIteration(Ctx, 0, SrcValues, [&](auto &Src) {
    // Evaluate the source subscripts once per source iteration.
    std::vector<int64_t> SrcVals;
    SrcVals.reserve(Subscripts.size());
    for (const SubscriptPair &S : Subscripts) {
      std::optional<int64_t> V = evalAt(S.Src, Src);
      if (!V)
        return false;
      SrcVals.push_back(*V);
    }
    std::map<std::string, int64_t> SnkValues;
    return forEachIteration(Ctx, 0, SnkValues, [&](auto &Snk) {
      if (Budget-- == 0)
        return false;
      for (unsigned K = 0; K != Subscripts.size(); ++K) {
        std::optional<int64_t> V = evalAt(Subscripts[K].Dst, Snk);
        if (!V)
          return false;
        if (*V != SrcVals[K])
          return true; // Not a dependence; keep enumerating.
      }
      ++Result.PairCount;
      Result.Dependent = true;
      std::vector<int> Tuple;
      std::vector<int64_t> Dist;
      Tuple.reserve(Ctx.depth());
      Dist.reserve(Ctx.depth());
      for (unsigned L = 0; L != Ctx.depth(); ++L) {
        const std::string &Idx = Ctx.loop(L).Index;
        int64_t SnkV = Snk.at(Idx), SrcV = Src.at(Idx);
        std::optional<int64_t> D = checkedSub(SnkV, SrcV);
        // The sign survives even when the distance itself overflows.
        int Sign = SnkV > SrcV ? 1 : (SnkV < SrcV ? -1 : 0);
        Tuple.push_back(-Sign);
        Dist.push_back(D ? *D : (Sign > 0 ? std::numeric_limits<int64_t>::max()
                                          : std::numeric_limits<int64_t>::min()));
      }
      // Tuple convention: -1 encodes '<' (source earlier). Flip to the
      // documented -1='<'? We store sign of (source - sink): source <
      // sink  =>  -1.
      Result.DirectionTuples.insert(std::move(Tuple));
      Result.DistanceVectors.insert(std::move(Dist));
      return true;
    });
  });
  if (!OK)
    return std::nullopt;
  return Result;
}

bool pdt::vectorsAdmitTuple(const std::vector<DependenceVector> &Vectors,
                            const std::vector<int> &Tuple) {
  for (const DependenceVector &V : Vectors) {
    if (V.depth() != Tuple.size())
      continue;
    bool Match = true;
    for (unsigned L = 0; L != Tuple.size(); ++L) {
      DirectionSet Need =
          Tuple[L] < 0 ? DirLT : (Tuple[L] > 0 ? DirGT : DirEQ);
      if (!(V.Directions[L] & Need)) {
        Match = false;
        break;
      }
    }
    if (Match)
      return true;
  }
  return false;
}
