//===- core/DeltaTest.cpp - The Delta test for coupled groups -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DeltaTest.h"

#include "core/MIVTests.h"
#include "core/SIVTests.h"
#include "support/MathExtras.h"

#include <cassert>

using namespace pdt;

namespace {

/// Per-equation working state.
struct EqState {
  LinearExpr Eq;
  bool Resolved = false;
  /// Existence already verified for the current form (avoids
  /// re-counting RDIV applications across passes).
  bool TestedCurrentForm = false;
};

/// Accumulated per-index direction knowledge.
struct IndexInfo {
  DirectionSet Dirs = DirAll;
  std::optional<int64_t> Distance;
};

/// Does the constraint's point survive the index's iteration range?
bool pointMayBeInRange(const Constraint &C, const Interval &Range) {
  assert(C.kind() == Constraint::Kind::Point);
  auto Out = [&Range](int64_t V) {
    return (Range.lower() && V < *Range.lower()) ||
           (Range.upper() && V > *Range.upper());
  };
  return !Out(C.pointX()) && !Out(C.pointY());
}

/// Rewrites \p Eq under the current constraint map: distance
/// constraints replace the sink occurrence i' by i + d, point
/// constraints pin both occurrences, and axis-parallel lines pin one
/// side. This is the paper's constraint propagation (section 5.3),
/// restricted to the forms PFC propagates.
LinearExpr propagateInto(const LinearExpr &Eq,
                         const std::map<std::string, Constraint> &Cons) {
  LinearExpr New = Eq;
  for (const auto &[Index, C] : Cons) {
    std::string Sink = sinkName(Index);
    switch (C.kind()) {
    case Constraint::Kind::Distance:
      if (New.usesIndex(Sink))
        New = New.substituteIndex(
            Sink, LinearExpr::index(Index) + LinearExpr(C.getDistance()));
      break;
    case Constraint::Kind::Point:
      if (New.usesIndex(Index))
        New = New.substituteIndex(Index, LinearExpr(C.pointX()));
      if (New.usesIndex(Sink))
        New = New.substituteIndex(Sink, LinearExpr(C.pointY()));
      break;
    case Constraint::Kind::Line: {
      // Axis-parallel lines pin one occurrence: a*i = c or b*i' = c.
      int64_t A = C.lineA(), B = C.lineB(), CC = C.lineC();
      if (B == 0 && A != 0 && dividesExactly(CC, A) && New.usesIndex(Index))
        New = New.substituteIndex(Index, LinearExpr(CC / A));
      else if (A == 0 && B != 0 && dividesExactly(CC, B) &&
               New.usesIndex(Sink))
        New = New.substituteIndex(Sink, LinearExpr(CC / B));
      break;
    }
    case Constraint::Kind::Any:
    case Constraint::Kind::Empty:
      break;
    }
  }
  return New;
}

/// A "distance-form" RDIV equation p - q' = K (source index p, sink
/// index q).
struct RDIVRelation {
  std::string SrcIndex;
  std::string SinkIndex;
  int64_t Offset; ///< p - q' = Offset.
  unsigned EqPos;
};

/// Matches ca*p + cb*q' + C = 0 with cb == -ca and ca | C, where p is
/// untagged and q' is tagged (distinct bases guaranteed by shape).
std::optional<RDIVRelation> matchRDIVRelation(const LinearExpr &Eq,
                                              unsigned Pos) {
  LinearExpr::TermRange Terms = Eq.indexTerms();
  if (Terms.size() != 2)
    return std::nullopt;
  const auto [VarA, CoeffA] = Terms[0];
  const auto [VarB, CoeffB] = Terms[1];
  // Need exactly one source-tagged and one sink-tagged variable.
  const std::string_view *Src = nullptr, *Snk = nullptr;
  int64_t CSrc = 0, CSnk = 0;
  if (!isSinkName(VarA) && isSinkName(VarB)) {
    Src = &VarA;
    Snk = &VarB;
    CSrc = CoeffA;
    CSnk = CoeffB;
  } else if (isSinkName(VarA) && !isSinkName(VarB)) {
    Src = &VarB;
    Snk = &VarA;
    CSrc = CoeffB;
    CSnk = CoeffA;
  } else {
    return std::nullopt;
  }
  if (CSrc == INT64_MIN || Eq.getConstant() == INT64_MIN)
    return std::nullopt; // Negations below would overflow (UB).
  if (CSnk != -CSrc)
    return std::nullopt;
  // Symbolic invariant parts are not propagated.
  if (!Eq.symbolTerms().empty())
    return std::nullopt;
  if (!dividesExactly(Eq.getConstant(), CSrc))
    return std::nullopt;
  // CSrc*p - CSrc*q' + C = 0  =>  p - q' = -C / CSrc.
  RDIVRelation R;
  R.SrcIndex = *Src;
  R.SinkIndex = baseName(*Snk);
  R.Offset = -Eq.getConstant() / CSrc;
  R.EqPos = Pos;
  return R;
}

/// Direction for a distance sign (+ -> '<').
DirectionSet dirOfSign(int Sign) {
  if (Sign > 0)
    return DirLT;
  if (Sign < 0)
    return DirGT;
  return DirEQ;
}

} // namespace

DeltaResult pdt::runDeltaTest(const std::vector<SubscriptPair> &Group,
                              const LoopNestContext &Ctx, TestStats *Stats,
                              std::string *Trace) {
  std::vector<LinearExpr> Equations;
  Equations.reserve(Group.size());
  std::vector<unsigned> Positions;
  Positions.reserve(Group.size());
  for (const SubscriptPair &P : Group) {
    Positions.push_back(Equations.size());
    Equations.push_back(P.equation());
  }
  return runDeltaTest(Group, Equations, Positions, Ctx, Stats, Trace);
}

DeltaResult pdt::runDeltaTest(const std::vector<SubscriptPair> &Subscripts,
                              std::span<const LinearExpr> Equations,
                              std::span<const unsigned> Positions,
                              const LoopNestContext &Ctx, TestStats *Stats,
                              std::string *Trace) {
  DeltaResult Result;
  if (Stats) {
    Stats->noteApplication(TestKind::Delta);
    ++Stats->CoupledGroups;
  }
  // Trace lines are formatted only when a trace was asked for: \p Line
  // is a callable returning the line.
  auto Log = [Trace](auto &&Line) {
    if (Trace) {
      *Trace += Line();
      *Trace += "\n";
    }
  };

  std::vector<EqState> Eqs;
  Eqs.reserve(Positions.size());
  for (unsigned Pos : Positions) {
    Eqs.push_back({Equations[Pos], false, false});
    Log([&] {
      return "subscript " + Subscripts[Pos].str() + "  =>  " +
             Eqs.back().Eq.str() + " = 0";
    });
  }

  std::map<std::string, Constraint> &Cons = Result.Constraints;
  std::map<std::string, IndexInfo> Info;
  bool AllExact = true;

  auto Independent = [&](TestKind By) {
    Result.TheVerdict = Verdict::Independent;
    Result.DecidedBy = By;
    Result.Exact = true;
    Result.Vectors.clear();
    if (Stats)
      Stats->noteIndependence(By);
    Log([By] { return std::string("independent (") + testKindName(By) + ")"; });
    return Result;
  };

  const unsigned MaxPasses = 8;
  bool Changed = true;
  while (Changed && Result.Passes < MaxPasses) {
    Changed = false;
    ++Result.Passes;
    Log([&] { return "-- pass " + std::to_string(Result.Passes); });

    // Phase 1: exact single-subscript tests on everything testable.
    for (EqState &S : Eqs) {
      if (S.Resolved || S.TestedCurrentForm)
        continue;
      SubscriptShape Shape = shapeOfEquation(S.Eq);
      if (Shape == SubscriptShape::GeneralMIV)
        continue;
      S.TestedCurrentForm = true;

      if (Shape == SubscriptShape::RDIV) {
        SIVResult R = testRDIV(S.Eq, Ctx, Stats);
        Log([&] {
          return "  RDIV " + S.Eq.str() + ": verdict " +
                 (R.TheVerdict == Verdict::Independent ? "independent"
                                                       : "maybe");
        });
        if (R.TheVerdict == Verdict::Independent)
          return Independent(R.Test);
        // Left unresolved: constraint propagation or the RDIV pair
        // logic below may still reduce it.
        continue;
      }

      SIVResult R = Shape == SubscriptShape::ZIV ? testZIV(S.Eq, Ctx, Stats)
                                                 : testSIV(S.Eq, Ctx, Stats);
      Log([&] {
        return std::string("  ") + testKindName(R.Test) + " on " + S.Eq.str() +
               " = 0";
      });
      if (R.TheVerdict == Verdict::Independent)
        return Independent(R.Test);
      S.Resolved = true;
      if (!R.Exact)
        AllExact = false;
      if (R.Index.empty())
        continue; // ZIV: no index information.

      // Merge direction knowledge.
      IndexInfo &II = Info[R.Index];
      II.Dirs &= R.Directions;
      if (R.Distance) {
        if (II.Distance && *II.Distance != *R.Distance)
          return Independent(TestKind::Delta);
        II.Distance = R.Distance;
      }
      if (II.Dirs == DirNone)
        return Independent(TestKind::Delta);

      // Intersect the constraint lattice.
      Constraint &Slot =
          Cons.try_emplace(R.Index, Constraint::any()).first->second;
      Constraint Met = Slot.intersect(R.IndexConstraint);
      if (Met != Slot) {
        Log([&] {
          return "    constraint on " + R.Index + ": " + Slot.str() + "  ^  " +
                 R.IndexConstraint.str() + "  =  " + Met.str();
        });
        Slot = Met;
        Changed = true;
      }
      if (Slot.isEmpty())
        return Independent(TestKind::Delta);
      if (Slot.kind() == Constraint::Kind::Point &&
          !pointMayBeInRange(Slot, Ctx.indexRange(R.Index)))
        return Independent(TestKind::Delta);
    }

    if (!Changed)
      break;

    // Phase 2: propagate constraints into the unresolved subscripts;
    // any rewrite re-arms testing of the (possibly simpler) form.
    for (EqState &S : Eqs) {
      if (S.Resolved)
        continue;
      LinearExpr New = propagateInto(S.Eq, Cons);
      if (New != S.Eq) {
        Log([&] {
          return "  propagate: " + S.Eq.str() + "  ->  " + New.str();
        });
        S.Eq = New;
        S.TestedCurrentForm = false;
      }
    }
  }

  // Phase 3: coupled RDIV pairs (section 5.3.2). Two crossed
  // distance-form relations p - q' = k1 and q - p' = k2 force
  // d_p + d_q = -(k1 + k2), which correlates the two levels.
  std::vector<std::vector<DependenceVector>> CorrelatedSets;
  {
    std::vector<RDIVRelation> Relations;
    for (unsigned I = 0; I != Eqs.size(); ++I) {
      if (Eqs[I].Resolved)
        continue;
      if (shapeOfEquation(Eqs[I].Eq) != SubscriptShape::RDIV)
        continue;
      if (std::optional<RDIVRelation> Rel = matchRDIVRelation(Eqs[I].Eq, I))
        Relations.push_back(*Rel);
    }
    for (unsigned A = 0; A != Relations.size(); ++A) {
      for (unsigned B = A + 1; B != Relations.size(); ++B) {
        const RDIVRelation &R1 = Relations[A];
        const RDIVRelation &R2 = Relations[B];
        if (R1.SrcIndex != R2.SinkIndex || R1.SinkIndex != R2.SrcIndex)
          continue;
        std::optional<unsigned> LP = Ctx.levelOf(R1.SrcIndex);
        std::optional<unsigned> LQ = Ctx.levelOf(R1.SinkIndex);
        if (!LP || !LQ)
          continue;
        int64_t K = -(R1.Offset + R2.Offset);
        Log([&] {
          return "  RDIV pair on (" + R1.SrcIndex + ", " + R1.SinkIndex +
                 "): d_" + R1.SrcIndex + " + d_" + R1.SinkIndex + " = " +
                 std::to_string(K);
        });
        // Enumerate sign pairs (s1, s2) compatible with d1 + d2 = K.
        std::vector<DependenceVector> Set;
        for (int S1 : {1, 0, -1}) {
          for (int S2 : {1, 0, -1}) {
            // Feasible iff some integers with these signs sum to K.
            bool Feasible;
            if (S1 == 0 && S2 == 0)
              Feasible = K == 0;
            else if (S1 == 0)
              Feasible = signOf(K) == S2;
            else if (S2 == 0)
              Feasible = signOf(K) == S1;
            else if (S1 == S2)
              Feasible = (S1 > 0) ? K >= 2 : K <= -2;
            else
              Feasible = true; // Opposite signs reach any sum.
            if (!Feasible)
              continue;
            DependenceVector V(Ctx.depth());
            V.Directions[*LP] = dirOfSign(S1);
            V.Directions[*LQ] = dirOfSign(S2);
            if (S1 == 0 && S2 != 0)
              V.Distances[*LQ] = K;
            if (S2 == 0 && S1 != 0)
              V.Distances[*LP] = K;
            if (S1 == 0)
              V.Distances[*LP] = 0;
            if (S2 == 0)
              V.Distances[*LQ] = 0;
            Set.push_back(std::move(V));
          }
        }
        if (Set.empty())
          return Independent(TestKind::Delta);
        CorrelatedSets.push_back(std::move(Set));
        Eqs[R1.EqPos].Resolved = true;
        Eqs[R2.EqPos].Resolved = true;
        // Directions are correlated but the distances are not pinned.
        AllExact = false;
      }
    }
  }

  // Phase 4: MIV fallback for whatever survived propagation.
  std::vector<std::vector<DependenceVector>> MIVSets;
  for (EqState &S : Eqs) {
    if (S.Resolved)
      continue;
    if (shapeOfEquation(S.Eq) == SubscriptShape::ZIV) {
      // Propagation emptied it without a retest pass; test now.
      SIVResult R = testZIV(S.Eq, Ctx, Stats);
      if (R.TheVerdict == Verdict::Independent)
        return Independent(R.Test);
      if (!R.Exact)
        AllExact = false;
      continue;
    }
    Result.ResidualMIV = true;
    AllExact = false;
    MIVResult M = testMIV(S.Eq, Ctx, Stats);
    if (M.TheVerdict == Verdict::Independent)
      return Independent(M.Test);
    if (!M.Vectors.empty())
      MIVSets.push_back(std::move(M.Vectors));
  }
  if (Stats && Result.ResidualMIV)
    ++Stats->GroupsWithResidualMIV;

  // Assemble the surviving dependence vectors.
  std::vector<DependenceVector> Vectors{DependenceVector(Ctx.depth())};
  for (const auto &[Index, II] : Info) {
    std::optional<unsigned> Level = Ctx.levelOf(Index);
    if (!Level)
      continue;
    DependenceVector Filter(Ctx.depth());
    Filter.Directions[*Level] = II.Dirs;
    Filter.Distances[*Level] = II.Distance;
    refineVectorSet(Vectors, Filter);
  }
  for (const auto &[Index, C] : Cons) {
    std::optional<unsigned> Level = Ctx.levelOf(Index);
    if (!Level)
      continue;
    DependenceVector Filter(Ctx.depth());
    if (C.kind() == Constraint::Kind::Distance) {
      Filter.Distances[*Level] = C.getDistance();
      Filter.Directions[*Level] = directionForDistance(C.getDistance());
    } else if (C.kind() == Constraint::Kind::Point) {
      int64_t D = C.pointY() - C.pointX();
      Filter.Distances[*Level] = D;
      Filter.Directions[*Level] = directionForDistance(D);
    } else {
      continue;
    }
    refineVectorSet(Vectors, Filter);
  }
  for (const auto &Set : CorrelatedSets)
    intersectVectorSets(Vectors, Set);
  for (const auto &Set : MIVSets)
    intersectVectorSets(Vectors, Set);

  if (Vectors.empty())
    return Independent(TestKind::Delta);

  Result.Vectors = std::move(Vectors);
  Result.Exact = AllExact;
  Result.TheVerdict = AllExact ? Verdict::Dependent : Verdict::Maybe;
  Log([&] {
    std::string VS;
    for (const DependenceVector &V : Result.Vectors) {
      if (!VS.empty())
        VS += " ";
      VS += V.str();
    }
    return "result: " + VS;
  });
  return Result;
}
