//===- support/FlightRecorder.cpp - Bounded last-N span rings -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/EventLog.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <type_traits>

using namespace pdt;

namespace {

/// Parses the bytes component of a PDT_FLIGHT spec: decimal digits
/// with an optional k/K (KiB) or m/M (MiB) suffix.
bool parseBytes(const std::string &S, size_t &Out) {
  if (S.empty())
    return false;
  size_t Mult = 1;
  std::string Digits = S;
  char Last = Digits.back();
  if (Last == 'k' || Last == 'K')
    Mult = 1024, Digits.pop_back();
  else if (Last == 'm' || Last == 'M')
    Mult = 1024 * 1024, Digits.pop_back();
  if (Digits.empty() || Digits.size() > 12)
    return false;
  size_t Value = 0;
  for (char C : Digits) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    Value = Value * 10 + static_cast<size_t>(C - '0');
  }
  Value *= Mult;
  // At least one slot beyond any sane span, at most 1 GiB per thread.
  if (Value < sizeof(TraceEvent) || Value > (size_t(1) << 30))
    return false;
  Out = Value;
  return true;
}

/// One ring slot: a TraceEvent's bytes as relaxed atomic words, so a
/// snapshot may copy a slot its writer is overwriting without a data
/// race (the re-check of Count then discards the copy).
struct FlightSlot {
  static constexpr size_t Words = sizeof(TraceEvent) / sizeof(uint64_t);
  std::atomic<uint64_t> W[Words];

  void store(const TraceEvent &E) {
    uint64_t Raw[Words] = {};
    std::memcpy(Raw, &E, sizeof(E));
    for (size_t K = 0; K != Words; ++K)
      W[K].store(Raw[K], std::memory_order_relaxed);
  }
  TraceEvent load() const {
    uint64_t Raw[Words] = {};
    for (size_t K = 0; K != Words; ++K)
      Raw[K] = W[K].load(std::memory_order_relaxed);
    TraceEvent E;
    std::memcpy(&E, Raw, sizeof(E));
    return E;
  }
};
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
              sizeof(FlightSlot) == sizeof(TraceEvent));

/// One thread's ring. Single writer (the owning thread): store the
/// slot, then publish Count with release. Count is monotonic and
/// never wrapped — slot index is Count % Slots.size().
struct FlightRing {
  std::vector<FlightSlot> Slots;
  std::atomic<uint64_t> Count{0};
  uint32_t Tid = 0;
};

struct FlightState {
  std::mutex M;
  std::vector<std::shared_ptr<FlightRing>> Rings;
  size_t SlotsPerThread = FlightRecorder::DefaultBytesPerThread /
                          sizeof(TraceEvent);
  std::string DumpPath = "pdt-flight.json";
  std::atomic<bool> Enabled{false};
  // Bumped by start(): retires every thread's cached ring so capacity
  // changes take effect and old events vanish.
  std::atomic<uint64_t> Generation{0};
};

FlightState &state() {
  // Immortal like the trace collector: the crash-dump hook may run
  // after static destruction began.
  static FlightState *S = new FlightState;
  return *S;
}

std::shared_ptr<FlightRing> registerRing() {
  FlightState &S = state();
  auto Ring = std::make_shared<FlightRing>();
  std::lock_guard<std::mutex> Lock(S.M);
  Ring->Slots = std::vector<FlightSlot>(S.SlotsPerThread);
  Ring->Tid = static_cast<uint32_t>(S.Rings.size());
  S.Rings.push_back(Ring);
  return Ring;
}

struct ThreadRingRef {
  std::shared_ptr<FlightRing> Ring;
  uint64_t Generation = ~uint64_t(0);
};

ThreadRingRef &threadRing() {
  thread_local ThreadRingRef Ref;
  return Ref;
}

} // namespace

bool FlightRecorder::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool FlightRecorder::start(size_t BytesPerThread, std::string DumpPath) {
  FlightState &S = state();
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Rings.clear();
    size_t Slots = BytesPerThread / sizeof(TraceEvent);
    S.SlotsPerThread = Slots < 64 ? 64 : Slots;
    if (!DumpPath.empty())
      S.DumpPath = std::move(DumpPath);
  }
  S.Generation.fetch_add(1, std::memory_order_release);
  // Anchor the span clock before the first ring write can observe it.
  Trace::nowNs();
  S.Enabled.store(true, std::memory_order_relaxed);
  Trace::setCaptureBit(Trace::CaptureFlight, true);
  return true;
}

void FlightRecorder::stop() {
  Trace::setCaptureBit(Trace::CaptureFlight, false);
  state().Enabled.store(false, std::memory_order_relaxed);
}

void FlightRecorder::record(const TraceEvent &E) {
  FlightState &S = state();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return;
  ThreadRingRef &Ref = threadRing();
  uint64_t Gen = S.Generation.load(std::memory_order_acquire);
  if (!Ref.Ring || Ref.Generation != Gen) {
    Ref.Ring = registerRing();
    Ref.Generation = Gen;
  }
  FlightRing &Ring = *Ref.Ring;
  uint64_t N = Ring.Count.load(std::memory_order_relaxed);
  // Seqlock writer: a snapshot that reads any payload store below also
  // sees Count >= N on its re-read, and discards the slot.
  TraceEvent Slot = E;
  Slot.Tid = Ring.Tid;
  std::atomic_thread_fence(std::memory_order_release);
  Ring.Slots[N % Ring.Slots.size()].store(Slot);
  Ring.Count.store(N + 1, std::memory_order_release);
}

std::vector<TraceEvent> FlightRecorder::snapshot() {
  FlightState &S = state();
  std::vector<TraceEvent> All;
  std::vector<std::shared_ptr<FlightRing>> Rings;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    Rings = S.Rings;
  }
  for (const std::shared_ptr<FlightRing> &Ring : Rings) {
    const uint64_t Cap = Ring->Slots.size();
    uint64_t End = Ring->Count.load(std::memory_order_acquire);
    uint64_t Begin = End > Cap ? End - Cap : 0;
    std::vector<std::pair<uint64_t, TraceEvent>> Window;
    Window.reserve(End - Begin);
    for (uint64_t I = Begin; I != End; ++I)
      Window.emplace_back(I, Ring->Slots[I % Cap].load());
    // Writers kept running during the copy: any slot whose index the
    // writer could have reused — published overwrites up to End2, plus
    // the one unpublished write of index End2 that may be in flight —
    // must be discarded, or we could return a torn event. The fence
    // pairs with the writer's, so End2 covers every store copied.
    std::atomic_thread_fence(std::memory_order_acquire);
    uint64_t End2 = Ring->Count.load(std::memory_order_relaxed);
    uint64_t FirstSafe = End2 >= Cap ? End2 - Cap + 1 : 0;
    for (const auto &[Index, Event] : Window)
      if (Index >= FirstSafe)
        All.push_back(Event);
  }
  std::sort(All.begin(), All.end(), spanPrecedes);
  return All;
}

FlightRecorder::Stats FlightRecorder::stats() {
  FlightState &S = state();
  Stats Out;
  std::lock_guard<std::mutex> Lock(S.M);
  Out.SlotsPerThread = static_cast<uint32_t>(S.SlotsPerThread);
  Out.Threads = static_cast<uint32_t>(S.Rings.size());
  for (const std::shared_ptr<FlightRing> &Ring : S.Rings) {
    uint64_t Count = Ring->Count.load(std::memory_order_relaxed);
    uint64_t Cap = Ring->Slots.size();
    Out.Recorded += Count;
    Out.Overwritten += Count > Cap ? Count - Cap : 0;
    Out.BytesInUse += Cap * sizeof(TraceEvent);
  }
  return Out;
}

std::string FlightRecorder::toJson(const char *Reason) {
  std::vector<TraceEvent> Events = snapshot();
  Stats S = stats();
  std::string Out;
  Out.reserve(Events.size() * 96 + 512);
  Out += "{\n\"displayTimeUnit\": \"ns\",\n";
  Out += "\"flightRecorder\": {\"reason\": \"";
  Out += Reason ? Reason : "on-demand";
  Out += "\", \"recorded\": " + std::to_string(S.Recorded);
  Out += ", \"overwritten\": " + std::to_string(S.Overwritten);
  Out += ", \"threads\": " + std::to_string(S.Threads);
  Out += ", \"slots_per_thread\": " + std::to_string(S.SlotsPerThread);
  Out += ", \"bytes_in_use\": " + std::to_string(S.BytesInUse);
  Out += ", \"build\": " + buildInfoJson();
  Out += "},\n\"traceEvents\": [\n";
  Trace::appendEventsJson(Out, Events);
  Out += "\n]\n}\n";
  return Out;
}

bool FlightRecorder::dump(const std::string &Path, const char *Reason) {
  std::ofstream File(Path);
  if (!File)
    return false;
  File << toJson(Reason);
  File.flush();
  if (!File.good())
    return false;
  Metrics::count(Metric::FlightDumps);
  return true;
}

bool FlightRecorder::postmortem(const char *Reason) {
  std::string Path = dumpPath();
  bool Ok = dump(Path, Reason);
  EventLog::event(EventSeverity::Error, "monitor", "flight-dump",
                  std::string(Reason ? Reason : "postmortem") +
                      (Ok ? " -> " + Path : " (write failed)"));
  return Ok;
}

std::string FlightRecorder::dumpPath() {
  FlightState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.DumpPath;
}

bool FlightRecorder::parseSpec(const std::string &Spec, bool &On,
                               size_t &BytesPerThread,
                               std::string &DumpPath) {
  bool IsOn = false;
  std::vector<std::string> Args;
  if (!splitSwitchSpec(Spec, IsOn, Args))
    return false;
  size_t Bytes = 0;
  if (!Args.empty() && !parseBytes(Args[0], Bytes))
    return false;
  if (Args.size() == 2 && Args[1].empty())
    return false;
  On = IsOn;
  if (Bytes)
    BytesPerThread = Bytes;
  if (Args.size() == 2)
    DumpPath = Args[1];
  return true;
}
