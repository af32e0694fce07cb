//===- core/ResultStore.h - Persistent dependence-result cache -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent, cross-process analogue of the in-memory
/// testDependence memo: dependence results keyed by the *canonical
/// content* of a lowered pair and stored durably through the
/// crash-safe segment store (support/Store.h).
///
/// ## Canonicalization
///
/// The store key is the full canonical string of (subscripts, loop
/// bounds, symbol ranges) after two normalizations:
///
///  - *alpha-renaming*: loop indices become their nest level (%0 is
///    the outermost), symbolic constants become slots ($0, $1, ...)
///    numbered by first appearance, so `DO i / A(i+n)` and
///    `DO k / A(k+m)` share one record;
///  - *bound normalization*: every level whose lower bound is a pure
///    integer constant L is shifted to start at 0 (i := i" + L adds
///    coeff*L to each constant), so `DO i = 1,n / A(i)` and
///    `DO i = 5,n+4 / A(i-4)` share one record.
///
/// Equal canonical strings imply alpha-equivalent content, hence
/// identical test results up to renaming: the key is the whole string,
/// never a hash, so collisions are structurally impossible and a hit
/// can never be unsound. Name-order differences that the renaming does
/// not capture merely miss. Any canonicalization step that would
/// overflow abandons the pair (no store participation) rather than
/// guessing.
///
/// ## Hydration
///
/// Stored values are *dehydrated*: direction vectors and distances are
/// shift-invariant and stored as-is, while transform hints mention
/// concrete names and iteration numbers, so their index becomes a
/// level, a Split crossing point is stored in shifted coordinates
/// (p - L), and a symbolic crossing sum as sum - 2L over slots. A hit
/// rehydrates with the *querying* nest's names and shifts. The
/// TestStats delta of the original computation is stored alongside and
/// replayed on a hit, so warm-run statistics equal a cold run exactly.
/// Degraded results are never persisted (the failure may be transient
/// and must not poison future runs).
///
/// ## Robustness
///
/// All durability concerns (checksums, torn tails, quarantine,
/// rebuild, generation skew) live in SegmentStore; this layer adds the
/// same never-crash posture on top: a store that failed to open, a
/// record that fails to parse, or a rehydration that would overflow
/// all degrade to a plain miss — the analysis then computes the result
/// as if the store did not exist.
///
/// Enablement: programmatic (ResultStore::activate) or via the
/// environment — PDT_STORE=1 with PDT_STORE_DIR naming the directory
/// (default .pdt-store), picked up by the analyzer pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_RESULTSTORE_H
#define PDT_CORE_RESULTSTORE_H

#include "analysis/LoopNest.h"
#include "core/DependenceTester.h"
#include "core/Subscript.h"
#include "core/TestStats.h"
#include "support/Store.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pdt {

/// A canonicalized pair query: the content key plus the renaming /
/// shift context needed to dehydrate results on insert and rehydrate
/// them on lookup.
struct CanonicalPair {
  /// The full canonical content string (the store key).
  std::string Key;
  /// Nest level -> original index name.
  std::vector<std::string> LevelIndex;
  /// Nest level -> lower-bound shift L (0 when not normalized).
  std::vector<int64_t> Shift;
  /// Symbol slot -> original symbol name.
  std::vector<std::string> SlotSymbol;
};

/// The persistent result cache over one store directory. Thread-safe;
/// all failure modes degrade to misses. Use the static activation API
/// for the process-wide store testDependence probes.
class ResultStore {
public:
  /// Canonicalizes a lowered pair. nullopt when the content cannot be
  /// canonicalized safely (e.g. a bound shift would overflow); the
  /// caller then skips the store for this pair.
  static std::optional<CanonicalPair>
  canonicalize(const std::vector<SubscriptPair> &Subscripts,
               const LoopNestContext &Ctx);

  /// Opens (healing as needed) the store at \p Dir under \p Generation
  /// — the analyzer version + options fingerprint; records written
  /// under any other generation are invalidated wholesale — and makes
  /// it the process-wide store probed by testDependence. Replaces any
  /// previously active store (flushing it first). A store that cannot
  /// persist still activates: it serves misses and degrades writes, per
  /// the never-crash contract.
  static bool activate(const std::string &Dir, const std::string &Generation);

  /// Flushes and closes the process-wide store.
  static void deactivate();

  /// The process-wide store, or null (one relaxed load, no lock) when
  /// inactive or bypassed on this thread (StoreBypassGuard).
  static std::shared_ptr<ResultStore> active();

  /// Looks up a canonicalized pair. On a hit, rehydrates the result
  /// with the querying context in \p Q, replays the stored TestStats
  /// delta into \p Stats, and counts the hit; otherwise counts a miss.
  std::optional<DependenceTestResult> lookup(const CanonicalPair &Q,
                                             TestStats *Stats);

  /// Persists a result computed for \p Q. \p Delta is the TestStats
  /// the computation recorded (replayed on future hits). Degraded
  /// results and results whose hints cannot be dehydrated are not
  /// persisted.
  void insert(const CanonicalPair &Q, const DependenceTestResult &Result,
              const TestStats &Delta);

  /// Recovery counters of the underlying segment store.
  StoreRecoveryStats recoveryStats() { return Segments->recoveryStats(); }

  /// True once the underlying store stopped persisting.
  bool broken() const { return Segments->broken(); }

  /// Records currently served from memory.
  uint64_t size() { return Segments->size(); }

  const std::string &directory() const { return Segments->directory(); }
  const std::string &generation() const { return Generation; }

private:
  ResultStore(std::unique_ptr<SegmentStore> S, std::string Gen)
      : Segments(std::move(S)), Generation(std::move(Gen)) {}

  std::unique_ptr<SegmentStore> Segments;
  std::string Generation;
};

/// RAII thread-local store bypass: while alive, ResultStore::active()
/// returns null on this thread. The fuzzer's cached-vs-fresh
/// differential uses this to compute its fresh baseline.
class StoreBypassGuard {
public:
  StoreBypassGuard();
  ~StoreBypassGuard();
  StoreBypassGuard(const StoreBypassGuard &) = delete;
  StoreBypassGuard &operator=(const StoreBypassGuard &) = delete;
};

} // namespace pdt

#endif // PDT_CORE_RESULTSTORE_H
