//===- perfbench/src/Bench.cpp - Run plumbing of both binaries ------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ServeLoad.h"

#include "support/BuildInfo.h"
#include "support/Json.h"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

extern char **environ;

using namespace pdt;

namespace perfbench {

namespace {

[[noreturn]] void usage(const char *Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload kernels|bigprog|batchheavy|serve"
               " [--seed N] [--seconds S] [--trace 0|1] [--expected FILE]"
               " [--out-dir DIR] [--commit ID] [--tiny] [--corrupt-reference]\n"
               "       perfbench --dump-inputs --workload W [--seed N]"
               " [--tiny]\n"
               "       perfbench --write-expected\n";
  std::exit(2);
}

bool parseUInt(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

/// The CPUs the process started with (read before any pinning).
const cpu_set_t &startCpus() {
  static const cpu_set_t Cpus = [] {
    cpu_set_t S;
    if (sched_getaffinity(0, sizeof(S), &S) != 0)
      CPU_ZERO(&S);
    return S;
  }();
  return Cpus;
}

/// Runs this binary with \p Args (and \p ExtraEnv added to the
/// environment) and returns its stdout; nullopt unless it exits 0. The
/// child is always waited for.
std::optional<std::string> runSelf(std::vector<std::string> Args,
                                   const std::string &ExtraEnv) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return std::nullopt;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  std::vector<char *> Argv;
  for (std::string &S : Args)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);
  std::string Key = ExtraEnv.substr(0, ExtraEnv.find('=') + 1);
  std::vector<char *> Env;
  for (char **E = environ; *E; ++E)
    if (Key.empty() || std::strncmp(*E, Key.c_str(), Key.size()) != 0)
      Env.push_back(*E);
  std::string Extra = ExtraEnv;
  if (!Extra.empty())
    Env.push_back(Extra.data());
  Env.push_back(nullptr);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                        Argv.data(), Env.data());
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[4096];
  ssize_t Got;
  while (Err == 0 && (Got = read(Pipe[0], Buf, sizeof(Buf))) != 0) {
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Out.append(Buf, static_cast<size_t>(Got));
  }
  close(Pipe[0]);
  int Status = 0;
  if (Err != 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return Out;
}

std::vector<std::string> childArgs(const Args &A, const char *Mode) {
  std::vector<std::string> Out = {"perfbench", Mode, "--workload",
                                  workloadName(A.W), "--seed",
                                  std::to_string(A.Seed)};
  if (A.Tiny)
    Out.push_back("--tiny");
  return Out;
}

std::optional<json::Value> loadExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream SS;
  SS << In.rdbuf();
  return json::parse(SS.str());
}

/// Programs the warm-up analyses before the timed phase.
size_t warmupOps(const Inputs &In) {
  return In.W == Workload::Kernels ? std::min<size_t>(256, In.Programs.size())
                                   : 1;
}

/// The program's own set-up in this process, in seconds.
double setupOnce(const Inputs &In) {
  int64_t T0 = nowNs();
  if (In.W == Workload::Serve) {
    ServeRig Rig;
    std::string Error;
    if (!Rig.start(Error)) {
      std::cerr << "perfbench: server start failed: " << Error << "\n";
      std::exit(1);
    }
    return static_cast<double>(nowNs() - T0) / 1e9;
  }
  warmUp(In);
  return static_cast<double>(nowNs() - T0) / 1e9;
}

int writeExpected() {
  std::cout << "{\n";
  const Workload All[] = {Workload::Kernels, Workload::BigProg,
                          Workload::BatchHeavy, Workload::Serve};
  for (Workload W : All) {
    std::cout << "  \"" << workloadName(W) << "\": {";
    // kernels also records the self-tests' smaller pool.
    for (bool Tiny : {false, true}) {
      if (Tiny && W != Workload::Kernels)
        continue;
      Inputs In = makeInputs(W, DefaultSeed, Tiny);
      Reference Ref = buildReference(In, nullptr, false);
      if (!Ref.Problems.empty()) {
        for (const std::string &P : Ref.Problems)
          std::cerr << "perfbench: " << P << "\n";
        return 1;
      }
      if (W == Workload::Serve) {
        for (size_t P = 0; P != In.Programs.size(); ++P)
          std::cout << (P ? ",\n    " : "\n    ") << "\""
                    << In.Programs[P].Name << "\": \"" << hex64(Ref.Full[P])
                    << "\"";
        std::cout << "\n  }\n";
      } else {
        std::cout << (Tiny ? ", " : "") << "\"" << expectedKey(In) << "\": \""
                  << hex64(Ref.aggregate()) << "\"";
      }
    }
    if (W != Workload::Serve)
      std::cout << "},\n";
  }
  std::cout << "}\n";
  return 0;
}

void printStamp(const Args &A) {
  std::cout << "{\"run_stamp\": {\"workload\": \"" << workloadName(A.W)
            << "\", \"seed\": " << A.Seed << ", \"seconds\": " << A.Seconds
            << ", \"trace\": " << (A.Trace ? 1 : 0)
            << ", \"graph_workers\": " << analyzerOptions(A.W).NumThreads
            << ", \"pool_workers\": "
            << (A.W == Workload::BigProg && A.Trace ? PoolWorkers : 0)
            << ", \"server_threads\": "
            << (A.W == Workload::Serve ? ServeServerThreads : 0)
            << ", \"clients\": " << (A.W == Workload::Serve ? ServeClients : 1)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"commit\": \"" << json::escape(A.Commit)
            << "\", \"build\": " << buildInfoJson() << "}}\n";
}

} // namespace

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value for " + Flag).c_str());
      return Argv[++I];
    };
    if (Flag == "--workload") {
      std::optional<Workload> W = workloadFromName(Value());
      if (!W)
        usage("unknown workload");
      A.W = *W;
      A.HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseUInt(Value(), A.Seed))
        usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      uint64_t S = 0;
      if (!parseUInt(Value(), S) || S == 0 || S > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      A.Seconds = static_cast<double>(S);
    } else if (Flag == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Trace = V == "1";
    } else if (Flag == "--expected") {
      A.Expected = Value();
    } else if (Flag == "--out-dir") {
      A.OutDir = Value();
    } else if (Flag == "--commit") {
      A.Commit = Value();
    } else if (Flag == "--tiny") {
      A.Tiny = true;
    } else if (Flag == "--corrupt-reference") {
      A.CorruptReference = true;
    } else if (Flag == "--reference") {
      A.ReferenceChild = true;
    } else if (Flag == "--setup-probe") {
      A.SetupProbe = true;
    } else if (Flag == "--dump-inputs") {
      A.DumpInputs = true;
    } else if (Flag == "--write-expected") {
      A.WriteExpected = true;
    } else {
      usage(("unknown argument " + Flag).c_str());
    }
  }
  if (!A.HaveWorkload && !A.WriteExpected)
    usage("--workload is required");
  if (!A.Expected.empty() && !loadExpected(A.Expected)) {
    std::cerr << "perfbench: cannot read " << A.Expected << "\n";
    std::exit(1);
  }
  return A;
}

std::optional<int> runAuxiliaryMode(const Args &A) {
  if (A.WriteExpected)
    return writeExpected();
  if (A.ReferenceChild) {
    Inputs In = makeInputs(A.W, A.Seed, A.Tiny);
    std::optional<json::Value> Expected;
    if (!A.Expected.empty())
      Expected = loadExpected(A.Expected);
    printReference(
        buildReference(In, Expected ? &*Expected : nullptr, A.CorruptReference),
        std::cout);
    return 0;
  }
  if (A.SetupProbe) {
    pinToOneCpu();
    Inputs In = makeInputs(A.W, A.Seed, A.Tiny);
    std::printf("%.9f\n", setupOnce(In));
    return 0;
  }
  if (A.DumpInputs) {
    Inputs In = makeInputs(A.W, A.Seed, A.Tiny);
    Reference Ref = loadReference(A, In);
    std::cout << "{\"workload\": \"" << workloadName(A.W)
              << "\", \"seed\": " << A.Seed << ", \"programs\": "
              << In.Programs.size() << ", \"inputs\": \""
              << hex64(inputsDigest(In)) << "\", \"reference\": \""
              << hex64(Ref.aggregate()) << "\", \"oracle_pairs\": "
              << Ref.OraclePairs << ", \"oracle_executed\": "
              << Ref.OracleExecuted << ", \"problems\": "
              << Ref.Problems.size() << "}\n";
    for (const std::string &P : Ref.Problems)
      std::cerr << "perfbench: " << P << "\n";
    return Ref.Problems.empty() ? 0 : 1;
  }
  return std::nullopt;
}

void pinToOneCpu() {
  const cpu_set_t &All = startCpus();
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &All)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(C, &One);
      sched_setaffinity(0, sizeof(One), &One);
      return;
    }
}

void unpin() { sched_setaffinity(0, sizeof(cpu_set_t), &startCpus()); }

Reference loadReference(const Args &A, const Inputs &In) {
  std::vector<std::string> ArgStrs = childArgs(A, "--reference");
  if (!A.Expected.empty()) {
    ArgStrs.push_back("--expected");
    ArgStrs.push_back(A.Expected);
  }
  if (A.CorruptReference)
    ArgStrs.push_back("--corrupt-reference");
  std::optional<std::string> Out = runSelf(ArgStrs, "PDT_BATCH=off");
  std::optional<Reference> Ref;
  if (Out)
    Ref = parseReference(*Out, In.Programs.size());
  if (!Ref) {
    std::cerr << "perfbench: the reference process failed\n";
    std::exit(1);
  }
  return std::move(*Ref);
}

OpOutput runOp(const NamedSource &P, const AnalyzerOptions &Opt,
               double &LatencyUs) {
  int64_t T0 = nowNs();
  AnalysisResult R = analyzeSource(P.Source, P.Name, Opt);
  std::vector<LoopParallelism> Par = findParallelLoops(R.Graph);
  LatencyUs = static_cast<double>(nowNs() - T0) / 1e3;
  OpOutput Out;
  Out.Parsed = R.Parsed;
  if (R.Parsed)
    Out.Digest = quickDigest(R.Graph, R.Stats, Par);
  return Out;
}

void warmUp(const Inputs &In) {
  AnalyzerOptions Opt = analyzerOptions(In.W);
  double Lat = 0;
  for (size_t I = 0, E = warmupOps(In); I != E; ++I)
    runOp(In.Programs[I], Opt, Lat);
}

std::vector<double> setupSamples(const Args &A, unsigned Count) {
  std::vector<double> Samples;
  for (unsigned I = 0; I != Count; ++I) {
    std::optional<std::string> Out =
        runSelf(childArgs(A, "--setup-probe"), "");
    if (!Out) {
      std::cerr << "perfbench: set-up probe failed\n";
      std::exit(1);
    }
    Samples.push_back(std::strtod(Out->c_str(), nullptr));
  }
  return Samples;
}

PhaseResult analysisLoop(const Inputs &In, const Reference &Ref,
                         double Seconds, uint64_t &Cursor) {
  PhaseResult Out;
  AnalyzerOptions Opt = analyzerOptions(In.W);
  std::vector<LatencyRecorder> Lats(1);
  uint64_t Done = 0;
  resetPeakRss();
  int64_t Start = nowNs(), End = Start + static_cast<int64_t>(Seconds * 1e9);
  Windows Win(Start, Done);
  int64_t Now;
  do {
    size_t P = Cursor++ % In.Programs.size();
    double Lat = 0;
    OpOutput O = runOp(In.Programs[P], Opt, Lat);
    Lats[0].add(static_cast<float>(Lat), Win.current());
    ++Out.Attempted;
    if (!O.Parsed || O.Digest != Ref.Quick[P] || Ref.Bad[P])
      ++Out.Failed;
    else
      ++Done;
    Now = nowNs();
    if (Win.due(Now))
      Win.close(Now, Done);
  } while (Now < End);
  Win.close(Now, Done, true);
  Out.WallS = static_cast<double>(Now - Start) / 1e9;
  Out.PeakRssMb = peakRssMb();
  Out.Timings = phaseTimings(Win, Lats);
  return Out;
}

int finish(const Args &A, const MetricSink &M, bool Correct,
           uint64_t Attempted, uint64_t Failed,
           const std::vector<std::string> &Problems) {
  for (const std::string &P : Problems)
    std::cerr << "perfbench: " << P << "\n";
  for (const auto &[Name, Value, Unit] : M.entries())
    std::cout << "  " << Name << " = " << Value << " " << Unit << "\n";
  printStamp(A);
  Correct = Correct && Failed == 0 && Attempted > 0;
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": " << M.json() << "}" << std::endl;
  return Correct ? 0 : 1;
}

} // namespace perfbench
