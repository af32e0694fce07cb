//===- perfbench/src/Traced.cpp - The traced run --------------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench_traced --workload W --seed N --seconds S
//
// The traced run of one workload: the per-layer metrics, from spans the
// benchmark records around each public call, a serial core replay through
// core's sub-layer calls (Replay.h), and the Metrics registry's memo, pool
// and serve counters. Prints them as its last stdout line, like
// perfbench does the end-to-end metrics. Every traced op and the replay
// are checked against the reference; any mismatch makes the run exit 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Replay.h"
#include "ServeLoad.h"

#include "analysis/InductionSubstitution.h"
#include "analysis/Normalization.h"
#include "parser/Parser.h"
#include "serve/Http.h"
#include "support/Failure.h"
#include "support/Metrics.h"

#include <algorithm>
#include <iostream>

using namespace pdt;
using namespace perfbench;

namespace {

/// The op of runOp through the public calls analyzeSource makes, one
/// span each. analyzeSource's own glue is timed separately as
/// driver.other_us.
OpOutput runTracedOp(const NamedSource &P, const AnalyzerOptions &Opt,
                     const SymbolRangeMap &Symbols, Tracer &T) {
  Scoped OpSpan(T, SpanName::Op);
  OpOutput Out;
  std::optional<Program> Prog;
  {
    Scoped S(T, SpanName::Parse);
    ParseResult Parsed = parseProgram(P.Source, P.Name);
    if (!Parsed.succeeded())
      return Out;
    Prog = std::move(*Parsed.Prog);
  }
  // Like analyzeProgram: a failed rewriting pass keeps the last good
  // program.
  if (Opt.Normalize) {
    Scoped S(T, SpanName::Normalize);
    try {
      Prog = normalizeLoops(*Prog);
    } catch (const AnalysisError &) {
    }
  }
  if (Opt.SubstituteIVs) {
    Scoped S(T, SpanName::IVSub);
    try {
      Prog = substituteInductionVariables(*Prog);
    } catch (const AnalysisError &) {
    }
  }
  TestStats Stats;
  std::optional<DependenceGraph> G;
  {
    Scoped S(T, SpanName::Build);
    G = DependenceGraph::build(*Prog, Symbols, &Stats, Opt.IncludeInputDeps,
                               Opt.NumThreads, &Opt.Budget);
  }
  std::vector<LoopParallelism> Par;
  {
    Scoped S(T, SpanName::FindParallel);
    Par = findParallelLoops(*G);
  }
  Out.Parsed = true;
  Out.Digest = quickDigest(*G, Stats, Par);
  return Out;
}

/// Spans one traced phase may keep in memory (32 bytes each).
constexpr size_t MaxSpansPerPhase = size_t(1) << 19;

/// Runs \p Fn(I) for I = 0, 1, ... until \p Seconds have passed or \p T
/// (when given) holds MaxSpansPerPhase spans, but at least \p MinCalls
/// times; returns the call count.
template <typename Fn>
uint64_t runFor(double Seconds, uint64_t MinCalls, Fn &&F,
                const Tracer *T = nullptr) {
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  uint64_t I = 0;
  while (I < MinCalls ||
         (nowNs() < End && !(T && T->spans().size() >= MaxSpansPerPhase)))
    F(I++);
  return I;
}

double perOp(const std::vector<double> &SelfNs, SpanName N, double Ops) {
  return Ops > 0 ? SelfNs[static_cast<size_t>(N)] / Ops / 1e3 : 0;
}

/// Per-layer metrics of the analysis path, shared by every workload: the
/// traced op through its public calls, analyzeSource as one call, and the
/// core replay (plus, on bigprog, serial vs pooled builds).
void tracedAnalysisLayers(const Inputs &In, const Reference &Ref,
                          double Seconds, MetricSink &M, bool &Ok,
                          std::string &Why, std::vector<Tracer> &Keep,
                          double &TracedOpsPerS) {
  AnalyzerOptions Opt = analyzerOptions(In.W);
  size_t N = In.Programs.size();
  // The resolved symbol ranges the traced op builds its graph under.
  std::vector<SymbolRangeMap> Symbols;
  for (const NamedSource &P : In.Programs)
    Symbols.push_back(analyzeSource(P.Source, P.Name, Opt).ResolvedSymbols);

  // 1. The op through its public calls, one span each.
  Tracer OpT(true);
  double Bytes = 0;
  int64_t T0 = nowNs();
  uint64_t Ops = runFor(Seconds * 0.35, 1, [&](uint64_t I) {
    size_t P = I % N;
    OpT.setOp(I);
    OpOutput O = runTracedOp(In.Programs[P], Opt, Symbols[P], OpT);
    Bytes += static_cast<double>(In.Programs[P].Source.size());
    if (!O.Parsed || O.Digest != Ref.Quick[P]) {
      Ok = false;
      Why = "traced op on " + In.Programs[P].Name + " differs from reference";
    }
  }, &OpT);
  TracedOpsPerS =
      static_cast<double>(Ops) / (static_cast<double>(nowNs() - T0) / 1e9);
  std::vector<double> OpSelf = OpT.selfTimes();
  double DOps = static_cast<double>(Ops);

  // 2. analyzeSource as one call, for the driver module's own share.
  Tracer DrvT(true);
  uint64_t DrvCalls = runFor(Seconds * 0.15, 1, [&](uint64_t I) {
    DrvT.setOp(I);
    Scoped S(DrvT, SpanName::AnalyzeSource);
    analyzeSource(In.Programs[I % N].Source, In.Programs[I % N].Name, Opt);
  }, &DrvT);
  std::vector<double> DrvSelf = DrvT.selfTimes();

  // 3. The core replay, one per distinct program per pass, alternating
  // with a serial build of the same program for the coverage ratio. The
  // first pass supplies the deterministic counts. Each replay is of a
  // fresh (untimed) analysis, whose TestStats it must reproduce.
  Tracer RepT(true);
  ReplayResult First;
  uint64_t MemoHits = 0, MemoMisses = 0;
  uint64_t Replays = runFor(Seconds * 0.35, N, [&](uint64_t I) {
    size_t P = I % N;
    AnalysisResult B =
        analyzeSource(In.Programs[P].Source, In.Programs[P].Name, Opt);
    RepT.setOp(I);
    {
      Scoped S(RepT, SpanName::SerialBuild);
      TestStats Discard;
      DependenceGraph::build(*B.Prog, B.ResolvedSymbols, &Discard,
                             Opt.IncludeInputDeps, 1, &Opt.Budget);
    }
    MetricsSnapshot M0 = Metrics::snapshot();
    ReplayResult R = replayBuild(B, Opt, RepT);
    if (I >= N)
      return;
    MetricsSnapshot M1 = Metrics::snapshot();
    MemoHits += M1.counter(Metric::MemoHits) - M0.counter(Metric::MemoHits);
    MemoMisses +=
        M1.counter(Metric::MemoMisses) - M0.counter(Metric::MemoMisses);
    if (!replayMatches(R, B)) {
      Ok = false;
      Why = "core replay of " + In.Programs[P].Name +
            " does not reproduce DependenceGraph::build's TestStats";
    }
    First.Stats += R.Stats;
    First.Accesses += R.Accesses;
    First.Pairs += R.Pairs;
    First.Edges += R.Edges;
    First.BatchAttempts += R.BatchAttempts;
    First.BatchAccepted += R.BatchAccepted;
    for (unsigned K = 0; K != 4; ++K)
      First.BinPairs[K] += R.BinPairs[K];
  }, &RepT);
  std::vector<double> RepSelf = RepT.selfTimes();
  double DRep = static_cast<double>(Replays);
  double DN = static_cast<double>(N);

  auto OpUs = [&](SpanName S) { return perOp(OpSelf, S, DOps); };
  auto RepUs = [&](SpanName S) { return perOp(RepSelf, S, DRep); };

  M.add("parser.parse_us", OpUs(SpanName::Parse), "us");
  M.add("parser.bytes_per_op", Bytes / DOps, "bytes");
  M.add("analysis.normalize_us", OpUs(SpanName::Normalize), "us");
  M.add("analysis.ivsub_us", OpUs(SpanName::IVSub), "us");
  M.add("ir.collect_us", RepUs(SpanName::Collect), "us");
  M.add("ir.accesses_per_op", static_cast<double>(First.Accesses) / DN,
        "count");
  double DriverUs = perOp(DrvSelf, SpanName::AnalyzeSource,
                          static_cast<double>(DrvCalls));
  M.add("driver.analyze_us", DriverUs, "us");
  M.add("driver.other_us",
        DriverUs - OpUs(SpanName::Parse) - OpUs(SpanName::Normalize) -
            OpUs(SpanName::IVSub) - OpUs(SpanName::Build),
        "us");
  M.add("core.enumerate_us", RepUs(SpanName::Enumerate), "us");
  M.add("core.lower_us", RepUs(SpanName::Lower), "us");
  M.add("core.pairs_per_op", static_cast<double>(First.Pairs) / DN, "count");
  M.add("core.batch.plan_us", RepUs(SpanName::BatchPlan), "us");
  M.add("core.batch.decide_us", RepUs(SpanName::BatchDecide), "us");
  M.add("core.batch.materialize_us", RepUs(SpanName::BatchMaterialize), "us");
  M.add("core.batch.attempts", static_cast<double>(First.BatchAttempts) / DN,
        "count");
  M.add("core.batch.accept_ratio",
        First.BatchAttempts ? static_cast<double>(First.BatchAccepted) /
                                  static_cast<double>(First.BatchAttempts)
                            : 0.0,
        "ratio");
  const SpanName Bins[4] = {SpanName::TestZIV, SpanName::TestSIV,
                            SpanName::TestMIV, SpanName::TestDelta};
  const char *BinNames[4] = {"ziv", "siv", "miv", "delta"};
  for (unsigned K = 0; K != 4; ++K)
    M.add(std::string("core.test.") + BinNames[K] + "_us", RepUs(Bins[K]),
          "us");
  for (unsigned K = 0; K != 4; ++K)
    M.add(std::string("core.test.") + BinNames[K] + "_pairs",
          static_cast<double>(First.BinPairs[K]) / DN, "count");
  for (unsigned K = 0; K != NumTestKinds; ++K) {
    std::string Name = testKindName(static_cast<TestKind>(K));
    std::replace(Name.begin(), Name.end(), ' ', '-');
    M.add("core.apps." + Name,
          static_cast<double>(First.Stats.Applications[K]) / DN, "count");
  }
  M.add("core.memo.hits", static_cast<double>(MemoHits) / DN, "count");
  M.add("core.memo.misses", static_cast<double>(MemoMisses) / DN, "count");
  M.add("core.memo.hit_ratio",
        MemoHits + MemoMisses
            ? static_cast<double>(MemoHits) /
                  static_cast<double>(MemoHits + MemoMisses)
            : 0.0,
        "ratio");
  M.add("core.emit_us", RepUs(SpanName::Emit), "us");
  M.add("core.edges_per_op", static_cast<double>(First.Edges) / DN, "count");
  M.add("core.build_us", OpUs(SpanName::Build), "us");
  double Attributed = 0;
  for (SpanName S : {SpanName::Collect, SpanName::Enumerate, SpanName::Lower,
                     SpanName::BatchPlan, SpanName::BatchDecide,
                     SpanName::BatchMaterialize, SpanName::TestZIV,
                     SpanName::TestSIV, SpanName::TestMIV, SpanName::TestDelta,
                     SpanName::Emit})
    Attributed += RepSelf[static_cast<size_t>(S)];
  double SerialNs = RepSelf[static_cast<size_t>(SpanName::SerialBuild)];
  M.add("core.unattributed_frac",
        SerialNs > 0 ? 1.0 - Attributed / SerialNs : 0, "fraction");
  M.add("transforms.parallel_us", OpUs(SpanName::FindParallel), "us");

  // bigprog only: serial vs pooled builds of the one program, alternated,
  // for the JobGraph/ThreadPool schedule.
  double ParallelEff = 0, Steals = 0;
  if (In.W == Workload::BigProg) {
    AnalysisResult B =
        analyzeSource(In.Programs[0].Source, In.Programs[0].Name, Opt);
    std::vector<double> Serial, Pooled;
    MetricsSnapshot Before = Metrics::snapshot();
    unpin(); // The pool's threads inherit the caller's CPU set.
    runFor(Seconds * 0.15, 3, [&](uint64_t) {
      for (unsigned Workers : {1u, PoolWorkers}) {
        TestStats Discard;
        int64_t S0 = nowNs();
        DependenceGraph::build(*B.Prog, B.ResolvedSymbols, &Discard,
                               Opt.IncludeInputDeps, Workers, &Opt.Budget);
        (Workers == 1 ? Serial : Pooled)
            .push_back(static_cast<double>(nowNs() - S0));
      }
    });
    pinToOneCpu();
    MetricsSnapshot After = Metrics::snapshot();
    ParallelEff = median(Serial) / (PoolWorkers * median(Pooled));
    Steals = static_cast<double>(After.counter(Metric::PoolSteals) -
                                 Before.counter(Metric::PoolSteals)) /
             static_cast<double>(Pooled.size());
  }
  M.add("support.pool.parallel_eff", ParallelEff, "ratio");
  M.add("support.pool.steals", Steals, "count");

  Keep.push_back(std::move(OpT));
  Keep.push_back(std::move(DrvT));
  Keep.push_back(std::move(RepT));
}

void writeAllSpans(const Args &A, const std::vector<const Tracer *> &All) {
  if (!A.OutDir.empty())
    writeSpans(A.OutDir + "/spans-" + workloadName(A.W) + "-seed" +
                   std::to_string(A.Seed) + ".tsv",
               All, 200000);
}

/// The traced serve run: untraced load, traced load (Client::post spans,
/// Metrics armed for the server-side latency), then the in-process pieces
/// of one request on the same bodies, then the analysis layers.
int tracedServe(const Args &A, const Inputs &In, const Reference &Ref,
                double Seconds) {
  MetricSink M;
  bool Correct = Ref.Problems.empty();
  std::vector<std::string> Problems = Ref.Problems;
  std::vector<uint64_t> Expect = Ref.Full;
  std::vector<std::string> Bodies;
  for (size_t P = 0; P != Expect.size(); ++P) {
    if (Ref.Bad[P])
      Expect[P] = 0;
    Bodies.push_back(analyzeBody(In.Programs[P]));
  }
  ServeRig Rig;
  std::string Error;
  if (!Rig.start(Error)) {
    std::cerr << "perfbench: server start failed: " << Error << "\n";
    return 1;
  }
  ServeOutcome Plain =
      Rig.load(A.Seed, Seconds * 0.15, Bodies, Expect, nullptr, 0);
  Metrics::enable("");
  std::vector<Tracer> ClientT(ServeClients, Tracer(true));
  ServeOutcome Traced = Rig.load(A.Seed, Seconds * 0.15, Bodies, Expect,
                                 &ClientT, Plain.Attempted);
  MetricsSnapshot Snap = Metrics::snapshot();
  double ClientP50 = Traced.Timings.P50Us;
  double PlainTput = static_cast<double>(Plain.Answered) / Plain.WallS;
  double TracedTput = static_cast<double>(Traced.Answered) / Traced.WallS;
  ServeOutcome Total = std::move(Plain);
  mergeOutcome(Total, std::move(Traced));
  std::string Why;
  if (!Rig.reconcile(Total, Why)) {
    Correct = false;
    Problems.push_back("serve accounting: " + Why);
  }

  Tracer InT(true);
  serve::Service Svc;
  AnalyzerOptions Opt = analyzerOptions(In.W);
  ServeDraws Draws(A.Seed, 0, Bodies.size());
  double BytesIn = 0, BytesOut = 0;
  uint64_t InOps = runFor(Seconds * 0.2, 1, [&](uint64_t I) {
    uint32_t Idx = Draws.next();
    InT.setOp(I);
    std::string Wire = "POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(Bodies[Idx].size()) + "\r\n\r\n" +
                       Bodies[Idx];
    serve::RequestParser Parser;
    {
      Scoped S(InT, SpanName::WireParse);
      Parser.feed(Wire);
    }
    serve::HttpResponse R;
    {
      Scoped S(InT, SpanName::Handle);
      R = Svc.handle(Parser.request());
    }
    std::string Bytes;
    {
      Scoped S(InT, SpanName::Serialize);
      Bytes = R.serialize();
    }
    {
      Scoped S(InT, SpanName::ServeAnalyze);
      analyzeSource(In.Programs[Idx].Source, In.Programs[Idx].Name, Opt);
    }
    BytesIn += static_cast<double>(Wire.size());
    BytesOut += static_cast<double>(Bytes.size());
    Fnv H;
    H.bytes(R.Body.data(), R.Body.size());
    if ((Parser.state() != serve::RequestParser::State::Complete ||
         R.Status != 200 || H.value() != Expect[Idx]) &&
        Correct) {
      Correct = false;
      Problems.push_back("in-process request for " + In.Programs[Idx].Name +
                         " differs from reference");
    }
  }, &InT);
  std::vector<double> InSelf = InT.selfTimes();
  double DIn = static_cast<double>(InOps);
  double ServerP50 =
      Snap.histogram(Histo::ServeRequestNs).quantileNs(0.5) / 1e3;
  double HandleUs = perOp(InSelf, SpanName::Handle, DIn);
  double AnalyzeUs = perOp(InSelf, SpanName::ServeAnalyze, DIn);

  std::vector<Tracer> Keep;
  double TracedOpsPerS = 0;
  std::string LayerWhy;
  bool LayersOk = true;
  tracedAnalysisLayers(In, Ref, Seconds * 0.5, M, LayersOk, LayerWhy, Keep,
                       TracedOpsPerS);
  if (!LayersOk) {
    Correct = false;
    Problems.push_back(LayerWhy);
  }
  M.add("serve.wire_parse_us", perOp(InSelf, SpanName::WireParse, DIn), "us");
  M.add("serve.handle_us", HandleUs, "us");
  M.add("serve.analyze_us", AnalyzeUs, "us");
  M.add("serve.service_other_us", HandleUs - AnalyzeUs, "us");
  M.add("serve.serialize_us", perOp(InSelf, SpanName::Serialize, DIn), "us");
  M.add("serve.server_p50_us", ServerP50, "us");
  M.add("serve.transport_us", ClientP50 - ServerP50, "us");
  M.add("serve.bytes_in_per_op", BytesIn / DIn, "bytes");
  M.add("serve.bytes_out_per_op", BytesOut / DIn, "bytes");
  M.add("trace.overhead_frac", 1.0 - TracedTput / PlainTput, "fraction");
  std::vector<const Tracer *> All;
  for (const Tracer &T : ClientT)
    All.push_back(&T);
  All.push_back(&InT);
  for (const Tracer &T : Keep)
    All.push_back(&T);
  writeAllSpans(A, All);
  return finish(A, M, Correct, Total.Attempted, Total.failed(), Problems);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (std::optional<int> Rc = runAuxiliaryMode(A))
    return *Rc;
  A.Trace = true;
  pinToOneCpu();

  Inputs In = makeInputs(A.W, A.Seed, A.Tiny);
  Reference Ref = loadReference(A, In);
  double Seconds = A.Tiny ? std::min(A.Seconds, 1.0) : A.Seconds;
  if (In.W == Workload::Serve)
    return tracedServe(A, In, Ref, Seconds);

  // Untraced ops for the overhead baseline, then the layers with Metrics
  // armed.
  warmUp(In);
  uint64_t Cursor = 0;
  PhaseResult Plain = analysisLoop(In, Ref, Seconds * 0.15, Cursor);
  Metrics::enable("");
  MetricSink M;
  bool Correct = Ref.Problems.empty();
  std::vector<std::string> Problems = Ref.Problems;
  std::vector<Tracer> Keep;
  double TracedOpsPerS = 0;
  std::string LayerWhy;
  bool LayersOk = true;
  tracedAnalysisLayers(In, Ref, Seconds * 0.85, M, LayersOk, LayerWhy, Keep,
                       TracedOpsPerS);
  if (!LayersOk) {
    Correct = false;
    Problems.push_back(LayerWhy);
  }
  // No serve layer runs here.
  for (const char *Name :
       {"serve.wire_parse_us", "serve.handle_us", "serve.analyze_us",
        "serve.service_other_us", "serve.serialize_us", "serve.server_p50_us",
        "serve.transport_us"})
    M.add(Name, 0, "us");
  M.add("serve.bytes_in_per_op", 0, "bytes");
  M.add("serve.bytes_out_per_op", 0, "bytes");
  double PlainTput = static_cast<double>(Plain.Attempted) / Plain.WallS;
  M.add("trace.overhead_frac", 1.0 - TracedOpsPerS / PlainTput, "fraction");
  std::vector<const Tracer *> All;
  for (const Tracer &T : Keep)
    All.push_back(&T);
  writeAllSpans(A, All);
  return finish(A, M, Correct, Plain.Attempted, Plain.Failed, Problems);
}
