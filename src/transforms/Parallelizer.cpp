//===- transforms/Parallelizer.cpp - Parallel loop detection --------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Parallelizer.h"

#include "ir/PrettyPrinter.h"

#include <unordered_map>

using namespace pdt;

std::vector<LoopParallelism>
pdt::findParallelLoops(const DependenceGraph &G) {
  std::vector<LoopParallelism> Report;
  std::unordered_map<const DoLoop *, size_t> Slot;
  for (const DoLoop *L : G.allLoops()) {
    Slot.emplace(L, Report.size());
    Report.push_back({L, false, {}});
  }
  // One pass over the edges, bucketing each by its carrier; the
  // buckets fill in ascending edge order.
  const std::vector<Dependence> &Deps = G.dependences();
  for (unsigned I = 0, E = Deps.size(); I != E; ++I)
    if (Deps[I].Carrier)
      if (auto It = Slot.find(Deps[I].Carrier); It != Slot.end())
        Report[It->second].SerializingDeps.push_back(I);
  for (LoopParallelism &P : Report)
    P.Parallel = P.SerializingDeps.empty();
  return Report;
}

std::string
pdt::parallelismReport(const DependenceGraph &G,
                       const std::vector<LoopParallelism> &Report) {
  std::string Out;
  for (const LoopParallelism &P : Report) {
    Out += "loop ";
    Out += P.Loop->getIndexName();
    Out += P.Parallel ? ": parallel\n" : ": serial\n";
    for (unsigned I : P.SerializingDeps) {
      const Dependence &D = G.dependences()[I];
      Out += "    blocked by ";
      Out += dependenceKindName(D.Kind);
      Out += " dependence ";
      Out += exprToString(G.accesses()[D.Source].Ref);
      Out += " -> ";
      Out += exprToString(G.accesses()[D.Sink].Ref);
      Out += " ";
      Out += D.Vector.str();
      Out += "\n";
    }
  }
  return Out;
}
