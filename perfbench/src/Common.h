//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, digests, the in-memory span recorder of the traced run, and the
/// metric sink every workload reports into. Nothing here calls into the
/// analysis libraries except to hash their results.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Analyzer.h"
#include "transforms/Parallelizer.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, every thread) in microseconds.
double processCpuUs();
/// Peak resident set of this process in MiB.
double peakRssMb();
/// Returns freed heap to the system and resets the peak resident set to
/// the current one, so that peakRssMb() covers only what follows.
void resetPeakRss();

/// 64-bit FNV-1a, the digest of every committed reference.
class Fnv {
public:
  void bytes(const void *Data, size_t N);
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

std::string hex64(uint64_t V);

/// Digest of one analysis as committed in expected.json: the printed
/// edge report, the analysis counters of TestStats (routing counters
/// excluded, so batched and scalar routings agree) and the parallel-loop
/// report.
uint64_t fullDigest(const pdt::AnalysisResult &R,
                    const std::vector<pdt::LoopParallelism> &Par);

/// Cheap digest of the same content from the edge fields instead of the
/// printed report; compared op by op in the timed loop.
uint64_t quickDigest(const pdt::DependenceGraph &G, const pdt::TestStats &S,
                     const std::vector<pdt::LoopParallelism> &Par);

/// Span names of the traced run: one per public call the benchmark
/// times.
enum class SpanName : uint8_t {
  Op,
  AnalyzeSource,
  Parse,
  Normalize,
  IVSub,
  Build,
  FindParallel,
  Replay,
  Collect,
  Enumerate,
  Lower,
  BatchPlan,
  BatchDecide,
  BatchMaterialize,
  TestZIV,
  TestSIV,
  TestMIV,
  TestDelta,
  Emit,
  SerialBuild,
  ClientPost,
  WireParse,
  Handle,
  Serialize,
  ServeAnalyze,
  Count_
};

struct SpanRecord {
  int64_t Start = 0, End = 0;
  uint64_t Op = 0;
  uint32_t Parent = UINT32_MAX;
  SpanName Name = SpanName::Op;
};

/// Records spans of one thread in memory. Disarmed, open/close cost one
/// branch.
class Tracer {
public:
  explicit Tracer(bool Armed) : Armed(Armed) {}

  void setOp(uint64_t Op) { CurOp = Op; }

  uint32_t open(SpanName N) {
    if (!Armed)
      return UINT32_MAX;
    SpanRecord R;
    R.Name = N;
    R.Op = CurOp;
    R.Parent = Stack.empty() ? UINT32_MAX : Stack.back();
    R.Start = nowNs();
    Spans.push_back(R);
    Stack.push_back(static_cast<uint32_t>(Spans.size() - 1));
    return Stack.back();
  }
  void close(uint32_t Id) {
    if (Id == UINT32_MAX)
      return;
    Spans[Id].End = nowNs();
    Stack.pop_back();
  }

  /// Records an already-finished span under the innermost open one (for
  /// calls whose name is only known once they return).
  void record(SpanName N, int64_t Start, int64_t End) {
    if (!Armed)
      return;
    SpanRecord R;
    R.Name = N;
    R.Op = CurOp;
    R.Parent = Stack.empty() ? UINT32_MAX : Stack.back();
    R.Start = Start;
    R.End = End;
    Spans.push_back(R);
  }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self time (duration minus the time covered by direct children) per
  /// span name, in nanoseconds, indexed by SpanName.
  std::vector<double> selfTimes() const;

private:
  bool Armed;
  uint64_t CurOp = 0;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Stack;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, SpanName N) : T(T), Id(T.open(N)) {}
  ~Scoped() { T.close(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

/// Writes the spans of \p Tracers as tab-separated lines (op, name,
/// parent index, start, end; at most \p MaxSpans) to \p Path.
void writeSpans(const std::string &Path,
                const std::vector<const Tracer *> &Tracers, size_t MaxSpans);

/// The metrics one run reports, in insertion order.
class MetricSink {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Entries.push_back({Name, Value, Unit});
  }
  std::string json() const;
  using Entry = std::tuple<std::string, double, std::string>;
  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
};

/// Exact quantile (nearest rank on the sorted samples).
double quantile(std::vector<double> Samples, double Q);
/// Median (mean of the middle two for an even count).
double median(std::vector<double> Samples);

/// One kept latency sample: the op's wall time and the index of the
/// window (see Windows) it ended in.
struct LatencySample {
  float Us;
  uint32_t Window;
};

/// Per-op latencies of one closed-loop caller in microseconds, in send
/// order, in a buffer of fixed size that is written through when it is
/// made. The benchmark's own share of the resident set is then the same
/// on every run, whatever the throughput. When the buffer is full, each
/// sample in it is dropped with probability 1/2, and from then on each op
/// is kept with half the probability as before, so the samples stay a
/// uniform random subsequence of all ops. The choice is random, not every
/// second op, because kernels cycles through its programs in order and a
/// fixed stride would keep only some of them.
class LatencyRecorder {
public:
  /// 1 MiB: no thinning below about 4k ops/s per caller in 30 s.
  static constexpr size_t DefaultCapacity = size_t(1) << 17;

  explicit LatencyRecorder(size_t Capacity = DefaultCapacity);

  void add(float Us, uint32_t Window) {
    ++Ops;
    if (Stride > 1 && (nextRandom() & (Stride - 1)))
      return;
    if (Samples.size() == Capacity) {
      thin();
      if (nextRandom() & 1)
        return;
    }
    Samples.push_back({Us, Window});
  }

  /// Ops recorded, kept or not.
  uint64_t ops() const { return Ops; }
  const std::vector<LatencySample> &samples() const { return Samples; }

private:
  void thin();
  /// xorshift64, fixed seed: the same ops are kept on every run.
  uint64_t nextRandom() {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    return Rng;
  }

  size_t Capacity;
  uint64_t Ops = 0;
  /// Each op is kept with probability 1/Stride (a power of two).
  uint64_t Stride = 1;
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  std::vector<LatencySample> Samples;
};

/// A timed phase cut into windows of about 100 ms: the ops completed in
/// each, and the wall and process CPU time each took. On a shared host
/// other tenants' work slows the program's CPU, by up to about twofold,
/// in bursts from a fraction of a second to several seconds. A window
/// that short lies mostly inside or outside a burst. Medians over the
/// windows, and latency quantiles over the faster half of them, are then
/// those of the program and not of its neighbours, as long as bursts
/// cover less than half of the phase.
class Windows {
public:
  static constexpr int64_t LengthNs = 100'000'000;

  /// Starts the first window at \p Now with \p Ops ops completed so far.
  Windows(int64_t Now, uint64_t Ops);

  /// Closes the open window at \p Now with \p Ops completed so far and
  /// opens the next. A final window is kept only when it is at least half
  /// as long as the others or the only one; its ops count in no window.
  void close(int64_t Now, uint64_t Ops, bool Final = false);
  /// Whether the open window has lasted its length at \p Now.
  bool due(int64_t Now) const { return Now - Start >= LengthNs; }
  /// The index of the open window.
  uint32_t current() const { return static_cast<uint32_t>(Tput.size()); }

  /// Median over the windows of completed ops per second.
  double medianThroughput() const { return median(Tput); }
  /// Median over the windows of process CPU microseconds per completed
  /// op.
  double medianCpuPerOp() const { return median(CpuPerOp); }
  /// The latency samples that ended in the faster half of the windows,
  /// those with at least the median throughput.
  std::vector<double>
  fasterHalfSamples(const std::vector<LatencyRecorder> &PerCaller) const;

private:
  int64_t Start;
  uint64_t OpsAtStart;
  double CpuAtStart;
  std::vector<double> Tput, CpuPerOp;
};

/// The timings of one timed phase that the end-to-end metrics report.
struct PhaseTimings {
  /// Windows::medianThroughput() and medianCpuPerOp().
  double Throughput = 0, CpuUsPerOp = 0;
  /// Quantiles 0.5 and 0.99 (nearest rank) of
  /// Windows::fasterHalfSamples().
  double P50Us = 0, P99Us = 0;
  /// Ops timed, and the kept samples the quantiles rank.
  uint64_t Ops = 0, Ranked = 0;
};
PhaseTimings phaseTimings(const Windows &W,
                          const std::vector<LatencyRecorder> &PerCaller);

/// Closes the windows of a timed phase from a thread of its own, for
/// phases whose ops complete on several threads.
class WindowSampler {
public:
  explicit WindowSampler(const std::atomic<uint64_t> &Completed);
  ~WindowSampler() { stop(); }
  WindowSampler(const WindowSampler &) = delete;
  WindowSampler &operator=(const WindowSampler &) = delete;

  /// The index of the open window, for a sample ending now.
  uint32_t current() const { return Current.load(std::memory_order_relaxed); }
  /// Ends the phase and closes the last window.
  void stop();
  /// The phase's windows; complete once stop() returned.
  const Windows &windows() const { return W; }

private:
  const std::atomic<uint64_t> &Completed;
  Windows W;
  std::atomic<uint32_t> Current{0};
  std::mutex Mutex;
  std::condition_variable CV;
  bool Stopping = false;
  std::thread Thread; // Last: started once the state above exists.
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
