//===- support/Store.cpp - Crash-safe append-only segment store -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Store.h"

#include "support/EventLog.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pdt;

namespace {

constexpr char SegmentMagic[] = "PDTSEG1\n"; // 8 bytes on disk.
constexpr size_t MagicLen = 8;

// Framing sanity cap: no key or value in this store is remotely this
// large, so a bigger length field means mangled framing, not data.
constexpr uint32_t MaxFieldLen = 1u << 28;

uint64_t fnv1a(const std::string &Key, const std::string &Value) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Key) {
    H ^= C;
    H *= 1099511628211ull;
  }
  for (unsigned char C : Value) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

void putU32(std::string &Out, uint32_t V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

void putU64(std::string &Out, uint64_t V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

uint32_t getU32(const std::string &Buf, size_t Pos) {
  uint32_t V;
  std::memcpy(&V, Buf.data() + Pos, sizeof(V));
  return V;
}

uint64_t getU64(const std::string &Buf, size_t Pos) {
  uint64_t V;
  std::memcpy(&V, Buf.data() + Pos, sizeof(V));
  return V;
}

// Serialized header of a fresh segment.
std::string segmentHeader(const std::string &Generation) {
  std::string Out(SegmentMagic, MagicLen);
  putU32(Out, static_cast<uint32_t>(Generation.size()));
  Out += Generation;
  return Out;
}

// One serialized record.
std::string recordBytes(const std::string &Key, const std::string &Value) {
  std::string Out;
  putU32(Out, static_cast<uint32_t>(Key.size()));
  putU32(Out, static_cast<uint32_t>(Value.size()));
  putU64(Out, fnv1a(Key, Value));
  Out += Key;
  Out += Value;
  return Out;
}

// EINTR/short-write safe full write. Returns false on any error.
bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

// Reads the whole file at \p Path into \p Out. False on any error.
bool readFile(const std::string &Path, std::string &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0;
  if (Ok) {
    Out.resize(static_cast<size_t>(St.st_size));
    size_t Done = 0;
    while (Ok && Done != Out.size()) {
      ssize_t N = ::read(Fd, Out.data() + Done, Out.size() - Done);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Out.resize(Done); // Shrunk meanwhile: keep what was read.
        Ok = N == 0;
        break;
      }
      Done += static_cast<size_t>(N);
    }
  }
  ::close(Fd);
  return Ok;
}

std::string segmentName(uint64_t Idx) {
  return "seg-" + std::to_string(Idx) + ".pdt";
}

// Parses "seg-<n>.pdt"; nullopt for anything else.
std::optional<uint64_t> segmentIndex(const std::string &Name) {
  if (Name.size() <= 8 || Name.compare(0, 4, "seg-") != 0 ||
      Name.compare(Name.size() - 4, 4, ".pdt") != 0)
    return std::nullopt;
  const std::string Digits = Name.substr(4, Name.size() - 8);
  if (Digits.empty())
    return std::nullopt;
  char *End = nullptr;
  unsigned long long Idx = std::strtoull(Digits.c_str(), &End, 10);
  if (End == Digits.c_str() || *End != '\0')
    return std::nullopt;
  return Idx;
}

} // namespace

SegmentStore::SegmentStore(std::string Dir, std::string Gen)
    : Directory(std::move(Dir)), Generation(std::move(Gen)) {}

SegmentStore::~SegmentStore() {
  flush();
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<SegmentStore> SegmentStore::open(const std::string &Dir,
                                                 const std::string &Gen) {
  std::unique_ptr<SegmentStore> S(new SegmentStore(Dir, Gen));
  if (FaultInjector::ioCheckpoint(IoFaultKind::Open)) {
    S->markBroken();
    return S;
  }
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    S->markBroken();
    return S;
  }

  // Collect existing segments in index order so the replay order (and
  // hence first-write-wins resolution) is deterministic.
  std::vector<std::pair<uint64_t, std::string>> Segments;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D))
      if (std::optional<uint64_t> Idx = segmentIndex(E->d_name))
        Segments.emplace_back(*Idx, Dir + "/" + E->d_name);
    ::closedir(D);
  } else {
    S->markBroken();
    return S;
  }
  std::sort(Segments.begin(), Segments.end());
  for (const auto &[Idx, Path] : Segments) {
    S->NextSeg = std::max(S->NextSeg, Idx + 1);
    std::map<std::string, std::string> Loaded;
    if (S->loadSegment(Path, Loaded)) {
      // Earlier segments win, so a key already held is kept.
      while (!Loaded.empty()) {
        auto Node = Loaded.extract(Loaded.begin());
        S->Records.try_emplace(std::move(Node.key()),
                               std::move(Node.mapped()));
      }
      continue;
    }
    // Anything imperfect is set aside whole; its valid records are
    // rewritten as a pristine segment so the next open is clean.
    S->Records.insert(Loaded.begin(), Loaded.end());
    S->quarantine(Path);
    if (!Loaded.empty() && !S->Broken)
      S->writeSegment(Loaded);
  }
  return S;
}

bool SegmentStore::loadSegment(const std::string &Path,
                               std::map<std::string, std::string> &Loaded) {
  if (FaultInjector::ioCheckpoint(IoFaultKind::Open)) {
    Stats.StaleSegments++; // Unreadable counts as not-ours.
    return false;
  }
  std::string Buf;
  if (!readFile(Path, Buf)) {
    Stats.StaleSegments++;
    return false;
  }

  // Header: magic + generation. Any mismatch means the segment was
  // written by another analyzer version / option set (or is not a
  // segment at all) — quarantine unread.
  if (Buf.size() < MagicLen + sizeof(uint32_t) ||
      Buf.compare(0, MagicLen, SegmentMagic, MagicLen) != 0) {
    Stats.StaleSegments++;
    return false;
  }
  uint32_t GenLen = getU32(Buf, MagicLen);
  size_t Pos = MagicLen + sizeof(uint32_t);
  if (GenLen > MaxFieldLen || Buf.size() - Pos < GenLen ||
      Buf.compare(Pos, GenLen, Generation) != 0) {
    Stats.StaleSegments++;
    return false;
  }
  Pos += GenLen;

  bool Clean = true;
  while (Pos < Buf.size()) {
    constexpr size_t HeaderLen = sizeof(uint32_t) * 2 + sizeof(uint64_t);
    if (Buf.size() - Pos < HeaderLen) {
      // A crash mid-append leaves a partial record header.
      Stats.TornTails++;
      Clean = false;
      break;
    }
    uint32_t KeyLen = getU32(Buf, Pos);
    uint32_t ValLen = getU32(Buf, Pos + sizeof(uint32_t));
    uint64_t Sum = getU64(Buf, Pos + 2 * sizeof(uint32_t));
    Pos += HeaderLen;
    if (KeyLen > MaxFieldLen || ValLen > MaxFieldLen) {
      // Mangled framing: the rest of the segment cannot be walked.
      Stats.CorruptRecords++;
      Clean = false;
      break;
    }
    if (Buf.size() - Pos < static_cast<size_t>(KeyLen) + ValLen) {
      Stats.TornTails++;
      Clean = false;
      break;
    }
    std::string Key = Buf.substr(Pos, KeyLen);
    std::string Value = Buf.substr(Pos + KeyLen, ValLen);
    Pos += static_cast<size_t>(KeyLen) + ValLen;
    if (fnv1a(Key, Value) != Sum) {
      // Framing is intact, so only this record is lost.
      Stats.CorruptRecords++;
      Clean = false;
      continue;
    }
    Stats.RecordsLoaded++;
    Loaded.emplace(std::move(Key), std::move(Value));
  }
  return Clean;
}

void SegmentStore::quarantine(const std::string &Path) {
  const std::string QDir = Directory + "/quarantine";
  ::mkdir(QDir.c_str(), 0755); // EEXIST is fine; rename will tell.
  std::string Base = Path;
  if (std::string::size_type Slash = Base.rfind('/');
      Slash != std::string::npos)
    Base = Base.substr(Slash + 1);
  if (::rename(Path.c_str(), (QDir + "/" + Base).c_str()) == 0) {
    Stats.Quarantined++;
    if (EventLog::enabled())
      EventLog::event(EventSeverity::Warn, "store", "quarantine", Base);
    return;
  }
  // Could not set it aside: remove it so the damage is not replayed
  // (its valid records are being rebuilt by the caller anyway).
  if (::unlink(Path.c_str()) != 0)
    markBroken();
}

bool SegmentStore::writeSegment(
    const std::map<std::string, std::string> &Recs) {
  const std::string Final = Directory + "/" + segmentName(NextSeg);
  const std::string Tmp = Final + ".tmp";
  NextSeg++;

  std::string Buf = segmentHeader(Generation);
  for (const auto &[Key, Value] : Recs)
    Buf += recordBytes(Key, Value);

  if (FaultInjector::ioCheckpoint(IoFaultKind::Open)) {
    markBroken();
    return false;
  }
  int TFd = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (TFd < 0) {
    markBroken();
    return false;
  }
  bool Ok = !FaultInjector::ioCheckpoint(IoFaultKind::Write) &&
            writeAll(TFd, Buf.data(), Buf.size());
  if (Ok && (FaultInjector::ioCheckpoint(IoFaultKind::Fsync) ||
             ::fsync(TFd) != 0))
    Ok = false;
  ::close(TFd);
  if (!Ok || ::rename(Tmp.c_str(), Final.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    Stats.WriteFailures++;
    markBroken();
    return false;
  }
  Stats.Rebuilds++;
  if (EventLog::enabled())
    EventLog::event(EventSeverity::Info, "store", "rebuild", Final,
                    {{"records", Recs.size()}});
  return true;
}

int SegmentStore::appendFd() {
  if (Fd >= 0 || Broken)
    return Fd;
  const std::string Path = Directory + "/" + segmentName(NextSeg);
  if (FaultInjector::ioCheckpoint(IoFaultKind::Open)) {
    markBroken();
    return -1;
  }
  int NewFd = ::open(Path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND,
                     0644);
  if (NewFd < 0) {
    markBroken();
    return -1;
  }
  NextSeg++;
  const std::string Header = segmentHeader(Generation);
  if (FaultInjector::ioCheckpoint(IoFaultKind::Write) ||
      !writeAll(NewFd, Header.data(), Header.size())) {
    ::close(NewFd);
    Stats.WriteFailures++;
    markBroken();
    return -1;
  }
  Fd = NewFd;
  return Fd;
}

std::optional<std::string> SegmentStore::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Records.find(Key);
  if (It == Records.end())
    return std::nullopt;
  return It->second;
}

void SegmentStore::insert(const std::string &Key, const std::string &Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Records.emplace(Key, Value).second)
    return; // First write wins.
  if (Broken)
    return;
  int AFd = appendFd();
  if (AFd < 0)
    return;
  const std::string Rec = recordBytes(Key, Value);
  if (FaultInjector::ioCheckpoint(IoFaultKind::TornTail)) {
    // Simulated crash image: half the record reaches the disk and the
    // process "dies" (the store goes broken). Recovery on the next
    // open must truncate exactly this tail.
    writeAll(AFd, Rec.data(), Rec.size() / 2);
    Stats.WriteFailures++;
    markBroken();
    return;
  }
  if (FaultInjector::ioCheckpoint(IoFaultKind::Write) ||
      !writeAll(AFd, Rec.data(), Rec.size())) {
    Stats.WriteFailures++;
    markBroken();
  }
}

void SegmentStore::flush() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Fd < 0 || Broken)
    return;
  if (FaultInjector::ioCheckpoint(IoFaultKind::Fsync) || ::fsync(Fd) != 0) {
    Stats.WriteFailures++;
    markBroken();
  }
}

bool SegmentStore::broken() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Broken;
}

uint64_t SegmentStore::size() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Records.size();
}

StoreRecoveryStats SegmentStore::recoveryStats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

void SegmentStore::markBroken() {
  // First transition only: the store keeps answering from memory after
  // it breaks, so one journal line per episode is the signal, not one
  // per failed write.
  if (!Broken && EventLog::enabled())
    EventLog::event(EventSeverity::Error, "store", "broken",
                    "store went broken; degrading to in-memory answers");
  Broken = true;
}
