//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace pdt;

namespace perfbench {

double processCpuUs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Us = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e6 + static_cast<double>(T.tv_usec);
  };
  return Us(U.ru_utime) + Us(U.ru_stime);
}

double peakRssMb() {
  // VmHWM, not ru_maxrss: the latter survives execve, so it would report
  // the peak of whatever process forked this one when that was larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB
}

void resetPeakRss() {
  malloc_trim(0);
  std::ofstream Refs("/proc/self/clear_refs");
  Refs << "5";
  Refs.close();
  if (!Refs)
    std::fprintf(stderr, "perfbench: cannot reset the peak resident set; "
                         "peak_rss_mb includes the set-up\n");
}

void Fnv::bytes(const void *Data, size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

namespace {

/// Hashes the analysis counters of \p S (TestStats::resultKey()).
void hashStats(Fnv &H, const TestStats &S) {
  for (unsigned I = 0; I != NumTestKinds; ++I) {
    H.u64(S.Applications[I]);
    H.u64(S.Independences[I]);
  }
  H.u64(S.ReferencePairs);
  H.u64(S.IndependentPairs);
  for (uint64_t D : S.DimensionHistogram)
    H.u64(D);
  for (uint64_t V : {S.SeparableSubscripts, S.CoupledSubscripts,
                     S.NonlinearSubscripts, S.ZIVSubscripts, S.SIVSubscripts,
                     S.MIVSubscripts, S.CoupledGroups, S.GroupsWithResidualMIV,
                     S.DegradedResults, S.FMBudgetHits})
    H.u64(V);
  for (uint64_t D : S.DegradedByKind)
    H.u64(D);
}

/// The printed, layer-qualified name of a span.
const char *spanNameStr(SpanName N) {
  switch (N) {
  case SpanName::Op: return "op";
  case SpanName::AnalyzeSource: return "driver.analyzeSource";
  case SpanName::Parse: return "parser.parseProgram";
  case SpanName::Normalize: return "analysis.normalizeLoops";
  case SpanName::IVSub: return "analysis.substituteInductionVariables";
  case SpanName::Build: return "core.DependenceGraph::build";
  case SpanName::FindParallel: return "transforms.findParallelLoops";
  case SpanName::Replay: return "core.replay";
  case SpanName::Collect: return "ir.collectAccesses";
  case SpanName::Enumerate: return "core.enumerate";
  case SpanName::Lower: return "core.AccessLoweringCache";
  case SpanName::BatchPlan: return "core.planBatchedPair";
  case SpanName::BatchDecide: return "core.decidePairBatch";
  case SpanName::BatchMaterialize: return "core.materializeBatchedPair";
  case SpanName::TestZIV: return "core.testPair.ziv";
  case SpanName::TestSIV: return "core.testPair.siv";
  case SpanName::TestMIV: return "core.testPair.miv";
  case SpanName::TestDelta: return "core.testPair.delta";
  case SpanName::Emit: return "core.orientVectors";
  case SpanName::SerialBuild: return "core.DependenceGraph::build.serial";
  case SpanName::ClientPost: return "serve.Client::post";
  case SpanName::WireParse: return "serve.RequestParser::feed";
  case SpanName::Handle: return "serve.Service::handle";
  case SpanName::Serialize: return "serve.HttpResponse::serialize";
  case SpanName::ServeAnalyze: return "serve.analyzeSource";
  case SpanName::Count_: break;
  }
  return "?";
}

} // namespace

uint64_t fullDigest(const AnalysisResult &R,
                    const std::vector<LoopParallelism> &Par) {
  Fnv H;
  H.str(R.Graph.str());
  hashStats(H, R.Stats);
  H.str(parallelismReport(R.Graph, Par));
  return H.value();
}

uint64_t quickDigest(const DependenceGraph &G, const TestStats &S,
                     const std::vector<LoopParallelism> &Par) {
  Fnv H;
  H.u64(G.accesses().size());
  H.u64(G.dependences().size());
  for (const Dependence &D : G.dependences()) {
    H.u64(D.Source);
    H.u64(D.Sink);
    H.u64(static_cast<uint64_t>(D.Kind));
    H.u64(D.CarriedLevel ? *D.CarriedLevel + 1 : 0);
    H.u64(D.Exact | (D.Degraded << 1));
    H.bytes(D.Vector.Directions.data(), D.Vector.Directions.size());
    for (const std::optional<int64_t> &Dist : D.Vector.Distances)
      H.u64(Dist ? static_cast<uint64_t>(*Dist) : 0x8000000000000000ull);
  }
  hashStats(H, S);
  for (const LoopParallelism &L : Par) {
    H.u64(L.Parallel);
    H.u64(L.SerializingDeps.size());
  }
  return H.value();
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<double> SelfNs(static_cast<size_t>(SpanName::Count_), 0.0);
  for (const SpanRecord &S : Spans) {
    double Dur = static_cast<double>(S.End - S.Start);
    SelfNs[static_cast<size_t>(S.Name)] += Dur;
    if (S.Parent != UINT32_MAX)
      SelfNs[static_cast<size_t>(Spans[S.Parent].Name)] -= Dur;
  }
  return SelfNs;
}

void writeSpans(const std::string &Path,
                const std::vector<const Tracer *> &Tracers, size_t MaxSpans) {
  std::ofstream Out(Path);
  if (!Out)
    return;
  size_t Total = 0;
  for (const Tracer *T : Tracers)
    Total += T->spans().size();
  Out << "# spans " << Total << " written " << std::min(Total, MaxSpans)
      << "\n# thread\top\tname\tparent\tstart_ns\tend_ns\n";
  size_t Written = 0;
  for (size_t Th = 0; Th != Tracers.size(); ++Th) {
    for (const SpanRecord &S : Tracers[Th]->spans()) {
      if (Written++ == MaxSpans)
        return;
      Out << Th << '\t' << S.Op << '\t' << spanNameStr(S.Name) << '\t'
          << (S.Parent == UINT32_MAX ? -1 : static_cast<int64_t>(S.Parent))
          << '\t' << S.Start << '\t' << S.End << '\n';
    }
  }
}

std::string MetricSink::json() const {
  std::ostringstream Out;
  Out << '{';
  bool First = true;
  for (const auto &[Name, Value, Unit] : Entries) {
    if (!First)
      Out << ", ";
    First = false;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Value) ? Value : 0.0);
    Out << '"' << Name << "\": {\"value\": " << Buf << ", \"unit\": \"" << Unit
        << "\"}";
  }
  Out << '}';
  return Out.str();
}

double quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * Samples.size()));
  Rank = std::clamp<size_t>(Rank, 1, Samples.size()) - 1;
  std::nth_element(Samples.begin(), Samples.begin() + Rank, Samples.end());
  return Samples[Rank];
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

LatencyRecorder::LatencyRecorder(size_t Capacity) : Capacity(Capacity) {
  Samples.assign(Capacity, LatencySample{}); // Faults every page in now.
  Samples.clear();                           // Keeps the capacity.
}

void LatencyRecorder::thin() {
  size_t Kept = 0;
  for (const LatencySample &S : Samples)
    if (nextRandom() & 1)
      Samples[Kept++] = S;
  Samples.resize(Kept);
  Stride *= 2;
}

Windows::Windows(int64_t Now, uint64_t Ops)
    : Start(Now), OpsAtStart(Ops), CpuAtStart(processCpuUs()) {}

void Windows::close(int64_t Now, uint64_t Ops, bool Final) {
  double Cpu = processCpuUs();
  if (!Final || 2 * (Now - Start) >= LengthNs || Tput.empty()) {
    double N = static_cast<double>(Ops - OpsAtStart);
    double WallS = static_cast<double>(std::max<int64_t>(Now - Start, 1)) / 1e9;
    Tput.push_back(N / WallS);
    CpuPerOp.push_back(N > 0 ? (Cpu - CpuAtStart) / N : 0);
  }
  Start = Now;
  OpsAtStart = Ops;
  CpuAtStart = Cpu;
}

std::vector<double>
Windows::fasterHalfSamples(const std::vector<LatencyRecorder> &PerCaller) const {
  double Median = median(Tput);
  std::vector<double> Pool;
  for (const LatencyRecorder &R : PerCaller)
    for (const LatencySample &S : R.samples())
      if (S.Window < Tput.size() && Tput[S.Window] >= Median)
        Pool.push_back(S.Us);
  return Pool;
}

PhaseTimings phaseTimings(const Windows &W,
                          const std::vector<LatencyRecorder> &PerCaller) {
  PhaseTimings T;
  T.Throughput = W.medianThroughput();
  T.CpuUsPerOp = W.medianCpuPerOp();
  std::vector<double> Pool = W.fasterHalfSamples(PerCaller);
  T.P50Us = quantile(Pool, 0.5);
  T.P99Us = quantile(Pool, 0.99);
  T.Ranked = Pool.size();
  for (const LatencyRecorder &R : PerCaller)
    T.Ops += R.ops();
  return T;
}

WindowSampler::WindowSampler(const std::atomic<uint64_t> &Completed)
    : Completed(Completed),
      W(nowNs(), Completed.load(std::memory_order_relaxed)), Thread([this] {
        std::unique_lock<std::mutex> Lock(Mutex);
        for (;;) {
          auto Due = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(Windows::LengthNs);
          if (CV.wait_until(Lock, Due, [this] { return Stopping; }))
            return;
          W.close(nowNs(), this->Completed.load(std::memory_order_relaxed));
          Current.store(W.current(), std::memory_order_relaxed);
        }
      }) {}

void WindowSampler::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      return;
    Stopping = true;
  }
  CV.notify_all();
  Thread.join();
  W.close(nowNs(), Completed.load(std::memory_order_relaxed), true);
}

} // namespace perfbench
