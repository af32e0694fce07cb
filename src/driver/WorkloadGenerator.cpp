//===- driver/WorkloadGenerator.cpp - Synthetic workloads -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/WorkloadGenerator.h"

#include <cassert>

using namespace pdt;

const char *pdt::workloadIndexName(unsigned Level) {
  static const char *Names[] = {"i", "j", "k", "l", "m2", "n2"};
  assert(Level < 6 && "generated nest too deep");
  return Names[Level];
}

namespace {

/// Local shorthand for the shared name table.
const char *indexName(unsigned Level) { return workloadIndexName(Level); }

int64_t drawInt(std::mt19937_64 &Rng, int64_t Lo, int64_t Hi) {
  return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
}

double drawProb(std::mt19937_64 &Rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(Rng);
}

LinearExpr drawAffine(std::mt19937_64 &Rng, const WorkloadConfig &Config) {
  LinearExpr E(drawInt(Rng, -Config.ConstRange, Config.ConstRange));
  for (unsigned L = 0; L != Config.Depth; ++L) {
    if (drawProb(Rng) > Config.IndexUseProb)
      continue;
    int64_t Coeff = drawInt(Rng, -Config.CoeffRange, Config.CoeffRange);
    if (Coeff != 0)
      E = E + LinearExpr::index(indexName(L), Coeff);
  }
  return E;
}

} // namespace

RandomCase pdt::generateRandomCase(std::mt19937_64 &Rng,
                                   const WorkloadConfig &Config) {
  std::vector<LoopBounds> Loops;
  for (unsigned L = 0; L != Config.Depth; ++L) {
    LoopBounds B;
    B.Index = indexName(L);
    B.Lower = LinearExpr(1);
    B.Upper = LinearExpr(drawInt(Rng, 1, Config.MaxBound));
    Loops.push_back(std::move(B));
  }

  RandomCase Case{std::vector<SubscriptPair>(),
                  LoopNestContext(std::move(Loops), SymbolRangeMap())};
  for (unsigned D = 0; D != Config.NumDims; ++D) {
    if (drawProb(Rng) < Config.StrongSIVBias) {
      // Strong SIV in a random index: a*i + c1 vs a*i + c2.
      unsigned L = drawInt(Rng, 0, Config.Depth - 1);
      int64_t A = drawInt(Rng, 1, Config.CoeffRange);
      LinearExpr Src = LinearExpr::index(indexName(L), A) +
                       LinearExpr(drawInt(Rng, 0, Config.ConstRange));
      LinearExpr Dst = LinearExpr::index(indexName(L), A) +
                       LinearExpr(drawInt(Rng, 0, Config.ConstRange));
      Case.Subscripts.emplace_back(std::move(Src), std::move(Dst), D);
      continue;
    }
    Case.Subscripts.emplace_back(drawAffine(Rng, Config),
                                 drawAffine(Rng, Config), D);
  }
  return Case;
}

std::string pdt::generateRandomProgramSource(std::mt19937_64 &Rng,
                                             unsigned NumNests,
                                             unsigned MaxDepth,
                                             unsigned StmtsPerNest) {
  std::string Src;
  unsigned ArrayId = 0;
  for (unsigned N = 0; N != NumNests; ++N) {
    unsigned Depth = static_cast<unsigned>(drawInt(Rng, 1, MaxDepth));
    std::string Indent;
    for (unsigned L = 0; L != Depth; ++L) {
      Src += Indent + "do " + indexName(L) + " = 1, n\n";
      Indent += "  ";
    }
    for (unsigned S = 0; S != StmtsPerNest; ++S) {
      std::string Array = "a" + std::to_string(ArrayId % 8);
      ++ArrayId;
      // Stencil-flavored statement: a(i+c, j+c) = a(i+c', j+c') + b(i).
      auto Subscript = [&](bool Write) {
        std::string Out;
        unsigned Dims = Depth >= 2 ? 2 : 1;
        for (unsigned D = 0; D != Dims; ++D) {
          if (D)
            Out += ", ";
          unsigned L = Dims == 2 ? D : 0;
          int64_t C = drawInt(Rng, Write ? 0 : -2, 2);
          Out += indexName(L);
          if (C > 0)
            Out += "+" + std::to_string(C);
          else if (C < 0)
            Out += "-" + std::to_string(-C);
        }
        return Out;
      };
      Src += Indent + Array + "(" + Subscript(true) + ") = " + Array + "(" +
             Subscript(false) + ") + w" + std::to_string(S) + "(" +
             indexName(Depth - 1) + ")\n";
    }
    for (unsigned L = 0; L != Depth; ++L) {
      Indent.resize(Indent.size() - 2);
      Src += Indent + "end do\n";
    }
  }
  return Src;
}

std::string pdt::generateBatchHeavyProgramSource(std::mt19937_64 &Rng,
                                                 unsigned NumNests,
                                                 unsigned StmtsPerNest) {
  std::string Src;
  for (unsigned N = 0; N != NumNests; ++N) {
    // Constant bounds keep every index range finite (the planner can
    // prove exactness); a per-nest array keeps every pair inside one
    // nest, where its indices stay common (a cross-nest pair would
    // rename them to ranged symbols, which the planner rejects).
    std::string A = "b" + std::to_string(N);
    bool ZIVNest = N % 5 == 4;
    bool CoupledNest = N % 11 == 10;
    Src += "do i = 1, " + std::to_string(drawInt(Rng, 16, 96)) + "\n";
    Src += "  do j = 1, " + std::to_string(drawInt(Rng, 16, 96)) + "\n";
    for (unsigned S = 0; S != StmtsPerNest; ++S) {
      auto Constant = [&]() { return std::to_string(drawInt(Rng, 1, 8)); };
      if (ZIVNest) {
        // Pure-constant subscripts in both dimensions: ZIV pairs.
        Src += "    " + A + "(" + Constant() + ", " + Constant() + ") = " +
               A + "(" + Constant() + ", " + Constant() + ") + 1\n";
        continue;
      }
      if (CoupledNest && S == 0) {
        // Coupled subscripts (i+j): the planner rejects them and the
        // pair takes the scalar-fallback route.
        Src += "    " + A + "(i+j, j) = " + A + "(i+j-1, j) + 1\n";
        continue;
      }
      // Strong-SIV stencil: equal unit coefficients, differing
      // constant offsets, in both dimensions.
      auto Ref = [&]() {
        auto Off = [&](const char *Idx) {
          int64_t C = drawInt(Rng, -3, 3);
          std::string Out = Idx;
          if (C > 0)
            Out += "+" + std::to_string(C);
          else if (C < 0)
            Out += "-" + std::to_string(-C);
          return Out;
        };
        return A + "(" + Off("i") + ", " + Off("j") + ")";
      };
      Src += "    " + Ref() + " = " + Ref() + " + " + Ref() + "\n";
    }
    Src += "  end do\nend do\n";
  }
  return Src;
}
