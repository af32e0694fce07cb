//===- core/ResultStore.cpp - Persistent dependence-result cache ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ResultStore.h"

#include "support/MathExtras.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>

using namespace pdt;

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

namespace {

/// Serializes \p E in canonical coordinates into \p Out:
/// "<const>" then "+%<level>*<coeff>" index terms (by level) and
/// "+$<slot>*<coeff>" symbol terms (by slot). The constant absorbs the
/// lower-bound shifts of every referenced index plus \p ExtraConst.
/// When \p AssignSlots, unseen symbols get the next slot; otherwise an
/// unseen symbol fails (hint dehydration must not invent slots the
/// lookup side cannot have). Returns false on any unmappable name or
/// overflow — the caller abandons the store for this pair/record.
bool serializeExpr(const LinearExpr &E, int64_t ExtraConst, bool AssignSlots,
                   const std::map<std::string, unsigned, std::less<>> &LevelOf,
                   CanonicalPair &C, std::string &Out) {
  int64_t Const = E.getConstant();
  std::vector<std::pair<unsigned, int64_t>> Idx;
  Idx.reserve(E.indexTerms().size());
  for (const auto &[Name, Coeff] : E.indexTerms()) {
    auto It = LevelOf.find(Name);
    if (It == LevelOf.end())
      return false;
    std::optional<int64_t> Scaled = checkedMul(Coeff, C.Shift[It->second]);
    if (!Scaled)
      return false;
    std::optional<int64_t> Sum = checkedAdd(Const, *Scaled);
    if (!Sum)
      return false;
    Const = *Sum;
    Idx.emplace_back(It->second, Coeff);
  }
  std::optional<int64_t> Final = checkedAdd(Const, ExtraConst);
  if (!Final)
    return false;
  Const = *Final;
  std::sort(Idx.begin(), Idx.end());

  std::vector<std::pair<unsigned, int64_t>> Sym;
  Sym.reserve(E.symbolTerms().size());
  for (const auto &[Name, Coeff] : E.symbolTerms()) {
    auto It = C.SymbolSlot.find(Name);
    unsigned Slot;
    if (It != C.SymbolSlot.end()) {
      Slot = It->second;
    } else if (AssignSlots) {
      Slot = static_cast<unsigned>(C.SlotSymbol.size());
      C.SymbolSlot.emplace(std::string(Name), Slot);
      C.SlotSymbol.emplace_back(Name);
    } else {
      return false;
    }
    Sym.emplace_back(Slot, Coeff);
  }
  std::sort(Sym.begin(), Sym.end());

  Out += std::to_string(Const);
  for (const auto &[Level, Coeff] : Idx) {
    Out += "+%";
    Out += std::to_string(Level);
    Out += '*';
    Out += std::to_string(Coeff);
  }
  for (const auto &[Slot, Coeff] : Sym) {
    Out += "+$";
    Out += std::to_string(Slot);
    Out += '*';
    Out += std::to_string(Coeff);
  }
  return true;
}

} // namespace

std::optional<CanonicalPair>
ResultStore::canonicalize(const std::vector<SubscriptPair> &Subscripts,
                          const LoopNestContext &Ctx) {
  CanonicalPair C;
  std::span<const LoopBounds> Loops = Ctx.loops();
  std::map<std::string, unsigned, std::less<>> LevelOf;
  C.LevelIndex.reserve(Loops.size());
  C.Shift.reserve(Loops.size());
  for (unsigned Level = 0; Level != Loops.size(); ++Level) {
    const LoopBounds &L = Loops[Level];
    if (!LevelOf.emplace(L.Index, Level).second)
      return std::nullopt; // Duplicate index name: refuse to rename.
    C.LevelIndex.push_back(L.Index);
    // Normalize only levels whose lower bound is a literal integer:
    // i := i" + L, which every serialized expression absorbs into its
    // constant.
    bool Shiftable = L.Affine && L.Lower.isPureConstant();
    C.Shift.push_back(Shiftable ? L.Lower.getConstant() : 0);
  }

  std::string Key;
  Key.reserve(128);
  for (const SubscriptPair &S : Subscripts) {
    if (!serializeExpr(S.Src, 0, true, LevelOf, C, Key))
      return std::nullopt;
    Key += '=';
    if (!serializeExpr(S.Dst, 0, true, LevelOf, C, Key))
      return std::nullopt;
    Key += '@';
    Key += std::to_string(S.Dim);
    Key += ';';
  }
  Key += '|';
  for (unsigned Level = 0; Level != Loops.size(); ++Level) {
    const LoopBounds &L = Loops[Level];
    Key += ':';
    if (L.Affine) {
      std::optional<int64_t> NegShift = checkedSub(0, C.Shift[Level]);
      if (!NegShift)
        return std::nullopt;
      if (!serializeExpr(L.Lower, *NegShift, true, LevelOf, C, Key))
        return std::nullopt;
      Key += ',';
      if (!serializeExpr(L.Upper, *NegShift, true, LevelOf, C, Key))
        return std::nullopt;
    } else {
      Key += '?';
    }
    Key += ',';
    Key += std::to_string(L.Step);
    Key += ';';
  }
  // Assumed ranges of exactly the symbols the content mentions, in
  // slot order. Unmentioned symbols cannot influence the result.
  Key += '|';
  for (unsigned Slot = 0; Slot != C.SlotSymbol.size(); ++Slot) {
    const Interval *Range = Ctx.symbolRange(C.SlotSymbol[Slot]);
    Key += Range ? Range->str() : std::string("?");
    Key += ';';
  }
  C.Key = std::move(Key);
  return C;
}

//===----------------------------------------------------------------------===//
// Value (de)hydration
//===----------------------------------------------------------------------===//

namespace {

// The serialized-value schema version; bumped on any layout change.
// Belt and braces under the store generation, which already embeds the
// analyzer version.
constexpr char ValueTag = 'r';

void serializeStats(const TestStats &S, std::string &Out) {
  auto Num = [&Out](uint64_t V) {
    Out += std::to_string(V);
    Out += ',';
  };
  for (uint64_t V : S.Applications)
    Num(V);
  for (uint64_t V : S.Independences)
    Num(V);
  Num(S.ReferencePairs);
  Num(S.IndependentPairs);
  for (uint64_t V : S.DimensionHistogram)
    Num(V);
  Num(S.SeparableSubscripts);
  Num(S.CoupledSubscripts);
  Num(S.NonlinearSubscripts);
  Num(S.ZIVSubscripts);
  Num(S.SIVSubscripts);
  Num(S.MIVSubscripts);
  Num(S.CoupledGroups);
  Num(S.GroupsWithResidualMIV);
  for (uint64_t V : S.DegradedByKind)
    Num(V);
  Num(S.DegradedResults);
  Num(S.FMBudgetHits);
}

/// Cursor over a serialized value. Every read checks bounds; Ok goes
/// false on the first malformed token and stays false.
struct Cursor {
  const std::string &Buf;
  size_t Pos = 0;
  bool Ok = true;

  explicit Cursor(const std::string &B) : Buf(B) {}

  bool atEnd() const { return Pos >= Buf.size(); }
  char peek() const { return atEnd() ? '\0' : Buf[Pos]; }

  bool eat(char C) {
    if (!Ok || atEnd() || Buf[Pos] != C)
      return Ok = false;
    ++Pos;
    return true;
  }

  int64_t num() {
    if (!Ok)
      return 0;
    size_t Start = Pos;
    if (!atEnd() && Buf[Pos] == '-')
      ++Pos;
    size_t DigitStart = Pos;
    while (!atEnd() && Buf[Pos] >= '0' && Buf[Pos] <= '9')
      ++Pos;
    if (Pos == DigitStart) {
      Ok = false;
      return 0;
    }
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Buf.c_str() + Start, &End, 10);
    if (errno == ERANGE || End != Buf.c_str() + Pos) {
      Ok = false;
      return 0;
    }
    return V;
  }

  uint64_t unum() {
    int64_t V = num();
    if (V < 0)
      Ok = false;
    return Ok ? static_cast<uint64_t>(V) : 0;
  }
};

bool parseStats(Cursor &C, TestStats &S) {
  auto Num = [&C](uint64_t &V) {
    V = C.unum();
    C.eat(',');
  };
  for (uint64_t &V : S.Applications)
    Num(V);
  for (uint64_t &V : S.Independences)
    Num(V);
  Num(S.ReferencePairs);
  Num(S.IndependentPairs);
  for (uint64_t &V : S.DimensionHistogram)
    Num(V);
  Num(S.SeparableSubscripts);
  Num(S.CoupledSubscripts);
  Num(S.NonlinearSubscripts);
  Num(S.ZIVSubscripts);
  Num(S.SIVSubscripts);
  Num(S.MIVSubscripts);
  Num(S.CoupledGroups);
  Num(S.GroupsWithResidualMIV);
  for (uint64_t &V : S.DegradedByKind)
    Num(V);
  Num(S.DegradedResults);
  Num(S.FMBudgetHits);
  return C.Ok;
}

/// A hint's symbolic crossing sum in canonical coordinates.
bool serializeSumExpr(const LinearExpr &E, int64_t Shift,
                      const std::map<std::string, unsigned, std::less<>> &LevelOf,
                      CanonicalPair &C, std::string &Out) {
  // Crossing sum i + i" shifts by -2L when the level shifts by L.
  std::optional<int64_t> Twice = checkedMul(Shift, -2);
  if (!Twice)
    return false;
  // Slots are frozen at canonicalize() time: the lookup side derives
  // the same slots from content alone, so dehydration must not extend
  // them.
  return serializeExpr(E, *Twice, false, LevelOf, C, Out);
}

std::optional<std::string> serializeValue(const CanonicalPair &C,
                                          const DependenceTestResult &R,
                                          const TestStats &Delta) {
  std::map<std::string, unsigned, std::less<>> LevelOf;
  for (unsigned Level = 0; Level != C.LevelIndex.size(); ++Level)
    LevelOf.emplace(C.LevelIndex[Level], Level);

  std::string V;
  V += ValueTag;
  V += std::to_string(static_cast<int>(R.TheVerdict));
  V += ',';
  V += std::to_string(static_cast<int>(R.DecidedBy));
  V += ',';
  V += R.Exact ? '1' : '0';
  V += ',';
  V += R.HasNonlinear ? '1' : '0';
  V += '|';
  for (const DependenceVector &Vec : R.Vectors) {
    for (DirectionSet D : Vec.Directions)
      V += static_cast<char>('0' + (D & 7));
    V += ':';
    for (const std::optional<int64_t> &Dist : Vec.Distances) {
      V += Dist ? std::to_string(*Dist) : std::string("?");
      V += ',';
    }
    V += '/';
  }
  V += '|';
  for (const TransformHint &H : R.Hints) {
    auto It = LevelOf.find(H.Index);
    if (It == LevelOf.end())
      return std::nullopt; // Hint mentions a name outside the nest.
    unsigned Level = It->second;
    int64_t Shift = C.Shift[Level];
    V += std::to_string(static_cast<int>(H.TheKind));
    V += ',';
    V += std::to_string(Level);
    V += ',';
    if (H.CrossingPoint) {
      // Crossing iteration p sits at p - L in canonical coordinates.
      std::optional<int64_t> Scaled =
          checkedMul(Shift, H.CrossingPoint->denominator());
      if (!Scaled)
        return std::nullopt;
      std::optional<int64_t> Num =
          checkedSub(H.CrossingPoint->numerator(), *Scaled);
      if (!Num)
        return std::nullopt;
      V += std::to_string(*Num);
      V += '/';
      V += std::to_string(H.CrossingPoint->denominator());
    } else {
      V += '-';
    }
    V += ',';
    if (H.SymbolicCrossingSum) {
      // serializeSumExpr never assigns slots, so the const_cast'd
      // CanonicalPair is not actually mutated.
      if (!serializeSumExpr(*H.SymbolicCrossingSum, Shift, LevelOf,
                            const_cast<CanonicalPair &>(C), V))
        return std::nullopt;
    } else {
      V += '-';
    }
    V += ';';
  }
  V += '|';
  serializeStats(Delta, V);
  return V;
}

/// Parses one canonical expression ("<c>" "+%l*a" "+$s*b" ...) and
/// rehydrates it with the querying context's names: level l becomes
/// Q.LevelIndex[l] with the level's shift folded back into the
/// constant, slot s becomes Q.SlotSymbol[s]. \p ExtraConst is added to
/// the constant (the hint-sum +2L reverse shift).
std::optional<LinearExpr> parseExpr(Cursor &C, const CanonicalPair &Q,
                                    int64_t ExtraConst) {
  int64_t Const = C.num();
  std::vector<std::pair<unsigned, int64_t>> Idx, Sym;
  while (C.Ok && C.peek() == '+') {
    C.eat('+');
    bool IsIndex = C.peek() == '%';
    if (!IsIndex && C.peek() != '$') {
      C.Ok = false;
      break;
    }
    ++C.Pos;
    uint64_t Ref = C.unum();
    C.eat('*');
    int64_t Coeff = C.num();
    if (!C.Ok)
      break;
    if (IsIndex) {
      if (Ref >= Q.LevelIndex.size())
        return std::nullopt;
      // Reverse the serialization-time shift absorption: the stored
      // constant includes +coeff*L for this level under *canonical*
      // coordinates; expressing the value over the querying nest's
      // original index subtracts coeff*L again.
      std::optional<int64_t> Scaled =
          checkedMul(Coeff, Q.Shift[static_cast<unsigned>(Ref)]);
      if (!Scaled)
        return std::nullopt;
      std::optional<int64_t> Sum = checkedSub(Const, *Scaled);
      if (!Sum)
        return std::nullopt;
      Const = *Sum;
      Idx.emplace_back(static_cast<unsigned>(Ref), Coeff);
    } else {
      if (Ref >= Q.SlotSymbol.size())
        return std::nullopt;
      Sym.emplace_back(static_cast<unsigned>(Ref), Coeff);
    }
  }
  if (!C.Ok)
    return std::nullopt;
  std::optional<int64_t> Final = checkedAdd(Const, ExtraConst);
  if (!Final)
    return std::nullopt;
  LinearExpr E(*Final);
  for (const auto &[Level, Coeff] : Idx)
    E = E + LinearExpr::index(Q.LevelIndex[Level], Coeff);
  for (const auto &[Slot, Coeff] : Sym)
    E = E + LinearExpr::symbol(Q.SlotSymbol[Slot], Coeff);
  return E;
}

std::optional<DependenceTestResult>
parseValue(const std::string &Buf, const CanonicalPair &Q, TestStats &Delta) {
  Cursor C(Buf);
  if (!C.eat(ValueTag))
    return std::nullopt;
  DependenceTestResult R;
  int64_t VerdictInt = C.num();
  C.eat(',');
  int64_t DecidedInt = C.num();
  C.eat(',');
  int64_t ExactInt = C.num();
  C.eat(',');
  int64_t NonlinearInt = C.num();
  C.eat('|');
  if (!C.Ok || VerdictInt < 0 || VerdictInt > 2 || DecidedInt < 0 ||
      DecidedInt >= static_cast<int64_t>(NumTestKinds))
    return std::nullopt;
  R.TheVerdict = static_cast<Verdict>(VerdictInt);
  R.DecidedBy = static_cast<TestKind>(DecidedInt);
  R.Exact = ExactInt != 0;
  R.HasNonlinear = NonlinearInt != 0;

  const unsigned Depth = Q.LevelIndex.size();
  while (C.Ok && C.peek() != '|') {
    DependenceVector Vec;
    while (C.Ok && C.peek() >= '0' && C.peek() <= '7') {
      Vec.Directions.push_back(static_cast<DirectionSet>(Buf[C.Pos] - '0'));
      ++C.Pos;
    }
    C.eat(':');
    while (C.Ok && C.peek() != '/') {
      if (C.peek() == '?') {
        ++C.Pos;
        Vec.Distances.emplace_back(std::nullopt);
      } else {
        Vec.Distances.emplace_back(C.num());
      }
      C.eat(',');
    }
    C.eat('/');
    if (!C.Ok || Vec.Directions.size() != Depth ||
        Vec.Distances.size() != Depth)
      return std::nullopt;
    R.Vectors.push_back(std::move(Vec));
  }
  C.eat('|');

  while (C.Ok && C.peek() != '|') {
    TransformHint H;
    int64_t KindInt = C.num();
    C.eat(',');
    uint64_t Level = C.unum();
    C.eat(',');
    if (!C.Ok || KindInt < 0 || KindInt > 2 || Level >= Depth)
      return std::nullopt;
    H.TheKind = static_cast<TransformHint::Kind>(KindInt);
    H.Index = Q.LevelIndex[static_cast<unsigned>(Level)];
    const int64_t Shift = Q.Shift[static_cast<unsigned>(Level)];
    if (C.peek() == '-' && C.Pos + 1 < Buf.size() && Buf[C.Pos + 1] == ',') {
      ++C.Pos; // No crossing point.
    } else {
      int64_t Num = C.num();
      C.eat('/');
      int64_t Den = C.num();
      if (!C.Ok || Den <= 0)
        return std::nullopt;
      // p = p_canonical + L; Rational arithmetic may overflow, which
      // must surface as a miss, not an exception.
      std::optional<int64_t> Scaled = checkedMul(Shift, Den);
      if (!Scaled)
        return std::nullopt;
      std::optional<int64_t> NewNum = checkedAdd(Num, *Scaled);
      if (!NewNum)
        return std::nullopt;
      try {
        H.CrossingPoint = Rational(*NewNum, Den);
      } catch (...) {
        return std::nullopt;
      }
    }
    C.eat(',');
    if (C.peek() == '-' && C.Pos + 1 < Buf.size() && Buf[C.Pos + 1] == ';') {
      ++C.Pos; // No symbolic sum.
    } else {
      std::optional<int64_t> Twice = checkedMul(Shift, 2);
      if (!Twice)
        return std::nullopt;
      std::optional<LinearExpr> Sum;
      try {
        Sum = parseExpr(C, Q, *Twice);
      } catch (...) {
        return std::nullopt;
      }
      if (!Sum)
        return std::nullopt;
      H.SymbolicCrossingSum = std::move(*Sum);
    }
    C.eat(';');
    if (!C.Ok)
      return std::nullopt;
    R.Hints.push_back(std::move(H));
  }
  C.eat('|');
  if (!parseStats(C, Delta))
    return std::nullopt;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Process-wide activation
//===----------------------------------------------------------------------===//

namespace {

std::mutex ActiveMutex;
std::shared_ptr<ResultStore> &activeSlot() {
  static std::shared_ptr<ResultStore> Slot;
  return Slot;
}
/// Whether a store is active: the disarmed probe is one relaxed load,
/// as Trace::capturing() gates a disarmed span.
std::atomic<bool> AnyActive{false};

thread_local unsigned BypassDepth = 0;

} // namespace

bool ResultStore::activate(const std::string &Dir,
                           const std::string &Generation) {
  std::unique_ptr<SegmentStore> Seg = SegmentStore::open(Dir, Generation);
  StoreRecoveryStats RS = Seg->recoveryStats();
  Metrics::count(Metric::StoreRecordsLoaded, RS.RecordsLoaded);
  Metrics::count(Metric::StoreCorruptRecords, RS.CorruptRecords);
  Metrics::count(Metric::StoreTornTails, RS.TornTails);
  Metrics::count(Metric::StoreStaleSegments, RS.StaleSegments);
  Metrics::count(Metric::StoreQuarantined, RS.Quarantined);
  Metrics::count(Metric::StoreRebuilds, RS.Rebuilds);
  std::shared_ptr<ResultStore> S(
      new ResultStore(std::move(Seg), Generation));
  std::lock_guard<std::mutex> Lock(ActiveMutex);
  activeSlot().swap(S); // Old store (if any) flushes on destruction.
  AnyActive.store(true, std::memory_order_relaxed);
  return true;
}

void ResultStore::deactivate() {
  std::lock_guard<std::mutex> Lock(ActiveMutex);
  activeSlot().reset();
  AnyActive.store(false, std::memory_order_relaxed);
}

std::shared_ptr<ResultStore> ResultStore::active() {
  if (BypassDepth != 0 || !AnyActive.load(std::memory_order_relaxed))
    return nullptr;
  std::lock_guard<std::mutex> Lock(ActiveMutex);
  return activeSlot();
}

StoreBypassGuard::StoreBypassGuard() { ++BypassDepth; }
StoreBypassGuard::~StoreBypassGuard() { --BypassDepth; }

//===----------------------------------------------------------------------===//
// Lookup / insert
//===----------------------------------------------------------------------===//

std::optional<DependenceTestResult> ResultStore::lookup(const CanonicalPair &Q,
                                                        TestStats *Stats) {
  std::optional<std::string> Raw = Segments->lookup(Q.Key);
  std::optional<DependenceTestResult> R;
  TestStats Delta;
  if (Raw) {
    R = parseValue(*Raw, Q, Delta);
    if (!R)
      // The record survived the checksum but does not parse or cannot
      // be rehydrated for this nest (e.g. a shifted crossing point
      // would overflow): serve a miss, never a guess.
      Metrics::count(Metric::StoreCorruptRecords);
  }
  if (!R) {
    Metrics::count(Metric::StoreMisses);
    if (Stats)
      ++Stats->StoreMisses;
    return std::nullopt;
  }
  Metrics::count(Metric::StoreHits);
  if (Stats) {
    ++Stats->StoreHits;
    // Replaying the original computation's counters makes a warm run's
    // statistics equal a cold run's exactly.
    Stats->merge(Delta);
  }
  return R;
}

void ResultStore::insert(const CanonicalPair &Q,
                         const DependenceTestResult &Result,
                         const TestStats &Delta) {
  // A degraded result reflects a (possibly transient) failure, not the
  // content; persisting it would poison every future run.
  if (Result.Degraded)
    return;
  std::optional<std::string> Value = serializeValue(Q, Result, Delta);
  if (!Value)
    return; // Undehydratable hints: skip, never persist approximations.
  bool WasBroken = Segments->broken();
  Segments->insert(Q.Key, *Value);
  Metrics::count(Metric::StoreInserts);
  if (!WasBroken && Segments->broken())
    Metrics::count(Metric::StoreWriteFailures);
}
