//===- support/Store.h - Crash-safe append-only segment store --*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-safe, append-only key/value segment store: the durability
/// layer under the persistent result cache (core/ResultStore.h).
///
/// On-disk layout of a store directory:
///
///   <dir>/seg-<n>.pdt      append-only segment files
///   <dir>/quarantine/      segments set aside by recovery
///
/// Each segment starts with a magic line and a generation string, then
/// holds a sequence of length-prefixed, checksummed records:
///
///   "PDTSEG1\n"  [u32 genLen] genBytes
///   repeat: [u32 keyLen] [u32 valLen] [u64 fnv1a(key+val)] key val
///
/// Integers are raw little-endian host words: the store is a per-host
/// cache, not an interchange format, and the generation string (which
/// embeds the analyzer version) invalidates it wholesale on any skew.
///
/// Crash safety and recovery, in order of line of defense:
///
///  1. Appends go to the tail of the newest segment only; previously
///     committed records are never rewritten, so a crash can damage at
///     most the in-flight tail record.
///  2. open() replays every segment and validates each record's
///     framing and checksum. A truncated tail is recognized and the
///     valid prefix kept (TornTails). A checksum mismatch with intact
///     framing skips just that record (CorruptRecords); mangled
///     framing abandons the rest of the segment.
///  3. Any segment that was not perfectly clean — damaged, or written
///     under a different generation (StaleSegments) — is moved into
///     quarantine/ and, when it still held valid records, rebuilt into
///     a fresh segment via tmp-file + fsync + rename (Rebuilds), so
///     the next open sees only clean segments.
///  4. Every filesystem failure (and every injected io_* fault, see
///     support/FaultInjector.h) flips the store to Broken: it stops
///     persisting but keeps serving the records already validated
///     in memory, and never throws. Callers degrade to the plain
///     in-memory path — a store problem must never crash the analysis
///     or change a verdict.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_STORE_H
#define PDT_SUPPORT_STORE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace pdt {

/// Recovery and health counters for one SegmentStore, filled by open()
/// and updated by inserts. Mirrored into Metrics by the result-store
/// layer.
struct StoreRecoveryStats {
  uint64_t RecordsLoaded = 0;   ///< Valid records replayed at open().
  uint64_t CorruptRecords = 0;  ///< Checksum-mismatch records skipped.
  uint64_t TornTails = 0;       ///< Segments with a truncated tail.
  uint64_t StaleSegments = 0;   ///< Segments under another generation.
  uint64_t Quarantined = 0;     ///< Files moved into quarantine/.
  uint64_t Rebuilds = 0;        ///< Segments rewritten from valid records.
  uint64_t WriteFailures = 0;   ///< Failed appends/fsyncs since open().
};

/// Crash-safe append-only key/value store over one directory. All
/// methods are thread-safe and none throws; see the file comment for
/// the recovery contract.
class SegmentStore {
public:
  /// Opens (creating if needed) the store in \p Dir, replaying and
  /// healing existing segments. \p Generation identifies the writer
  /// (analyzer version + options fingerprint): segments recorded under
  /// any other generation are quarantined unread. Never fails — on
  /// unusable directories the returned store is broken() and purely
  /// in-memory.
  static std::unique_ptr<SegmentStore> open(const std::string &Dir,
                                            const std::string &Generation);

  ~SegmentStore();

  SegmentStore(const SegmentStore &) = delete;
  SegmentStore &operator=(const SegmentStore &) = delete;

  /// Returns the stored value for \p Key, if any.
  std::optional<std::string> lookup(const std::string &Key);

  /// Records \p Key -> \p Value in memory and appends it to the newest
  /// segment. First write wins: re-inserting an existing key is a
  /// no-op. Persistence failures mark the store broken; the in-memory
  /// record is kept either way.
  void insert(const std::string &Key, const std::string &Value);

  /// Flushes the append segment to disk (fsync). Called automatically
  /// on destruction.
  void flush();

  /// True once any filesystem operation failed: the store keeps
  /// serving memory but no longer persists.
  bool broken() const;

  /// Number of records currently held in memory.
  uint64_t size();

  /// Recovery/health counters accumulated since open().
  StoreRecoveryStats recoveryStats();

  /// The directory this store was opened on.
  const std::string &directory() const { return Directory; }

private:
  SegmentStore(std::string Dir, std::string Generation);

  /// Replays one segment file into Records. Returns false when the
  /// segment must be quarantined (any damage or generation skew).
  bool loadSegment(const std::string &Path,
                   std::map<std::string, std::string> &Loaded);

  /// Moves \p Path into quarantine/, creating the directory on demand.
  void quarantine(const std::string &Path);

  /// Writes \p Recs as a brand-new segment via tmp + fsync + rename.
  /// Returns false (and marks the store broken) on failure.
  bool writeSegment(const std::map<std::string, std::string> &Recs);

  /// Lazily opens the append segment, writing its header. Returns the
  /// fd or -1 (store marked broken).
  int appendFd();

  void markBroken();

  std::string Directory;
  std::string Generation;

  mutable std::mutex Mutex;
  /// Keys are long and share long prefixes, so they are hashed once
  /// rather than compared along a tree path.
  std::unordered_map<std::string, std::string> Records;
  StoreRecoveryStats Stats;
  bool Broken = false;
  int Fd = -1;          ///< Append segment fd, -1 until first insert.
  uint64_t NextSeg = 1; ///< Index for the next segment file name.
};

} // namespace pdt

#endif // PDT_SUPPORT_STORE_H
