//===- perfbench/src/Reference.cpp - The ops' reference -------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include "Common.h"

#include "core/Oracle.h"
#include "driver/Interpreter.h"
#include "ir/AccessCollector.h"
#include "serve/Http.h"
#include "serve/Service.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

using namespace pdt;

namespace perfbench {

void Reference::fail(size_t P, std::string Why) {
  Bad[P] = true;
  if (Problems.size() < 8)
    Problems.push_back(std::move(Why));
}

uint64_t Reference::aggregate() const {
  Fnv H;
  for (uint64_t D : Full)
    H.u64(D);
  return H.value();
}

namespace {

/// The Oracle's per-pair enumeration budget (source x sink iteration
/// pairs) and the Interpreter's access budget, as the fuzzer uses them.
constexpr uint64_t OracleMaxPairs = uint64_t(1) << 21;
constexpr uint64_t MaxDynamicAccesses = 100000;

std::string tupleStr(const std::vector<int> &Tuple) {
  std::string S = "(";
  for (size_t L = 0; L != Tuple.size(); ++L)
    S += std::string(L ? "," : "") +
         (Tuple[L] < 0 ? "<" : (Tuple[L] > 0 ? ">" : "="));
  return S + ")";
}

/// True when \p D admits the sign tuple \p Tuple (-1 '<', 0 '=', +1 '>').
bool admits(const Dependence &D, const std::vector<int> &Tuple) {
  if (D.Vector.depth() != Tuple.size())
    return false;
  for (size_t L = 0; L != Tuple.size(); ++L) {
    DirectionSet Need = Tuple[L] < 0 ? DirLT : (Tuple[L] > 0 ? DirGT : DirEQ);
    if (!(D.Vector.Directions[L] & Need))
      return false;
  }
  return true;
}

std::vector<int> reversed(std::vector<int> Tuple) {
  for (int &V : Tuple)
    V = -V;
  return Tuple;
}

/// Checks \p R, the reference analysis of kernel \p K's source text,
/// against ground truth computed from the kernel itself:
///  - every dependence the Oracle enumerates for an access pair must be
///    admitted by an edge between the two accesses, and on a kernel
///    without symbols an exact edge needs an enumerated dependence;
///  - every dynamic conflict of the Interpreter running the kernel at its
///    sampled symbol values must be covered by an edge admitting its
///    direction.
/// The source is the kernel's program printed, so its accesses map 1:1
/// onto the reference graph's; the check verifies that first.
void oracleCheck(const FuzzKernel &K, const AnalysisResult &R, bool Corrupt,
                 size_t P, Reference &Ref) {
  std::string Where = "oracle: kernel " + std::to_string(K.Index) + ": ";
  Program Truth = fuzzKernelToProgram(K);
  std::vector<ArrayAccess> Want = collectAccesses(Truth);
  const std::vector<ArrayAccess> &Got = R.Graph.accesses();
  bool Same = Want.size() == Got.size() && Want.size() == 2 * K.Stmts.size();
  for (size_t I = 0; Same && I != Want.size(); ++I)
    Same = Want[I].IsWrite == Got[I].IsWrite &&
           Want[I].Ref->getArrayName() == Got[I].Ref->getArrayName();
  if (!Same) {
    Ref.fail(P, Where + "the reference graph's accesses do not match the "
                        "kernel's");
    return;
  }
  // Fuzz numbering gives statement S accesses 2S (write) and 2S+1 (read);
  // collectAccesses lists each statement's read before its write.
  auto GraphIndex = [&Got](unsigned Fuzz) {
    unsigned First = Fuzz / 2 * 2;
    return Got[First].IsWrite == (Fuzz % 2 == 0) ? First : First + 1;
  };

  std::vector<Dependence> Edges = R.Graph.dependences();
  if (Corrupt && !Edges.empty())
    Edges.erase(Edges.begin());
  auto Between = [&Edges](unsigned A, unsigned B, auto &&Pred) {
    for (const Dependence &D : Edges)
      if (Pred(D, (D.Source == A && D.Sink == B) ? 1
                  : (D.Source == B && D.Sink == A) ? -1
                                                   : 0))
        return true;
    return false;
  };

  bool GroundTruth = false;
  for (const FuzzPair &Pair : enumerateFuzzPairs(K)) {
    std::optional<ConcreteFuzzPair> Concrete = concretizeFuzzPair(K, Pair);
    if (!Concrete)
      continue;
    std::optional<OracleResult> Enumerated = enumerateDependences(
        Concrete->Subscripts, Concrete->Ctx, OracleMaxPairs);
    if (!Enumerated)
      continue;
    GroundTruth = true;
    ++Ref.OraclePairs;
    unsigned Src = GraphIndex(Pair.SrcAccess), Snk = GraphIndex(Pair.SnkAccess);
    std::set<std::vector<int>> Tuples = Enumerated->DirectionTuples;
    // The self pair's all-'=' tuple is the same dynamic instance.
    if (Src == Snk)
      std::erase_if(Tuples, [](const std::vector<int> &T) {
        return std::all_of(T.begin(), T.end(), [](int V) { return V == 0; });
      });
    for (const std::vector<int> &T : Tuples) {
      // Edges lead with '<': a tuple leading with '>' runs the sink
      // first, so a reversed edge (or, on a self pair, the same edge)
      // covers it.
      bool Covered = Between(Src, Snk, [&](const Dependence &D, int Dir) {
        return (Dir == 1 && admits(D, T)) ||
               ((Dir == -1 || (Dir == 1 && Src == Snk)) &&
                admits(D, reversed(T)));
      });
      if (!Covered) {
        Ref.fail(P, Where + "the Oracle finds direction " + tupleStr(T) +
                        " between accesses " + std::to_string(Src) + " and " +
                        std::to_string(Snk) + "; no edge admits it");
        return;
      }
    }
    // Exactness is checkable only without symbols: under symbols an exact
    // claim covers every admissible value, of which this is one.
    if (Tuples.empty() && Src != Snk && K.SymbolValues.empty() &&
        Between(Src, Snk, [](const Dependence &D, int Dir) {
          return Dir != 0 && D.Exact && !D.Degraded;
        })) {
      Ref.fail(P, Where + "exact edge between accesses " +
                      std::to_string(Src) + " and " + std::to_string(Snk) +
                      "; the Oracle finds no dependence");
      return;
    }
  }
  Ref.OracleKernels += GroundTruth;

  InterpreterOptions Exec;
  Exec.Symbols = K.SymbolValues;
  Exec.MaxAccesses = MaxDynamicAccesses;
  ExecutionTrace Trace = interpret(Truth, Exec);
  if (!Trace.OK)
    return; // Out of budget: nothing to check.
  ++Ref.OracleExecuted;
  std::map<std::pair<std::string, std::vector<int64_t>>,
           std::vector<const RecordedAccess *>>
      ByCell;
  for (const RecordedAccess &A : Trace.Accesses)
    ByCell[{A.Array, A.Indices}].push_back(&A);
  for (const auto &[Cell, List] : ByCell) {
    for (size_t I = 0; I != List.size(); ++I) {
      for (size_t J = I + 1; J != List.size(); ++J) {
        const RecordedAccess &A = *List[I]; // Earlier in time.
        const RecordedAccess &B = *List[J];
        if (!A.IsWrite && !B.IsWrite)
          continue;
        size_t Common =
            commonLoops(Got[A.AccessIndex], Got[B.AccessIndex]).size();
        std::vector<int> Tuple;
        bool SamePoint = A.AccessIndex == B.AccessIndex;
        for (size_t L = 0; L != Common; ++L) {
          int64_t D = B.Iteration[L] - A.Iteration[L];
          Tuple.push_back(D > 0 ? -1 : (D < 0 ? 1 : 0));
          SamePoint &= D == 0;
        }
        if (SamePoint)
          continue;
        if (!Between(A.AccessIndex, B.AccessIndex,
                     [&Tuple](const Dependence &D, int Dir) {
                       return Dir == 1 && admits(D, Tuple);
                     })) {
          Ref.fail(P, Where + "dynamic conflict on " + A.Array +
                          " from access " + std::to_string(A.AccessIndex) +
                          " to " + std::to_string(B.AccessIndex) +
                          " with direction " + tupleStr(Tuple) +
                          " has no covering edge");
          return;
        }
      }
    }
  }
}

serve::HttpRequest analyzeRequest(const std::string &Body) {
  serve::HttpRequest Req;
  Req.Method = "POST";
  Req.Target = "/v1/analyze";
  Req.Version = "HTTP/1.1";
  Req.Headers = {{"Host", "127.0.0.1"},
                 {"Content-Type", "application/json"},
                 {"Content-Length", std::to_string(Body.size())}};
  Req.Body = Body;
  return Req;
}

} // namespace

Reference buildReference(const Inputs &In, const json::Value *Expected,
                         bool Corrupt) {
  Reference Ref;
  size_t N = In.Programs.size();
  Ref.Quick.assign(N, 0);
  Ref.Full.assign(N, 0);
  Ref.Bad.assign(N, false);
  const json::Value *Mine =
      Expected ? Expected->find(workloadName(In.W)) : nullptr;
  AnalyzerOptions Opt = analyzerOptions(In.W);

  if (In.W == Workload::Serve) {
    serve::Service Svc;
    for (size_t P = 0; P != N; ++P) {
      const NamedSource &Prog = In.Programs[P];
      serve::HttpResponse R = Svc.handle(analyzeRequest(analyzeBody(Prog)));
      Fnv H;
      H.bytes(R.Body.data(), R.Body.size());
      Ref.Full[P] = H.value();
      if (R.Status != 200)
        Ref.fail(P, Prog.Name + ": in-process status " +
                        std::to_string(R.Status));
      if (Mine) {
        std::optional<std::string> Want = Mine->stringAt(Prog.Name);
        if (!Want || *Want != hex64(Ref.Full[P]))
          Ref.fail(P, Prog.Name + ": body digest " + hex64(Ref.Full[P]) +
                          " != committed " + Want.value_or("(none)"));
      }
      AnalysisResult A = analyzeSource(Prog.Source, Prog.Name, Opt);
      Ref.Quick[P] = quickDigest(A.Graph, A.Stats, findParallelLoops(A.Graph));
    }
    return Ref;
  }

  for (size_t P = 0; P != N; ++P) {
    AnalysisResult R =
        analyzeSource(In.Programs[P].Source, In.Programs[P].Name, Opt);
    if (!R.Parsed) {
      Ref.fail(P, In.Programs[P].Name + ": does not parse");
      continue;
    }
    std::vector<LoopParallelism> Par = findParallelLoops(R.Graph);
    Ref.Quick[P] = quickDigest(R.Graph, R.Stats, Par);
    Ref.Full[P] = fullDigest(R, Par);
    if (P < In.Kernels.size())
      oracleCheck(In.Kernels[P], R, Corrupt, P, Ref);
  }

  if (Mine) {
    if (std::optional<std::string> Want = Mine->stringAt(expectedKey(In))) {
      if (*Want != hex64(Ref.aggregate()))
        for (size_t P = 0; P != N; ++P)
          Ref.fail(P, std::string(workloadName(In.W)) + " " + expectedKey(In) +
                          ": digest " + hex64(Ref.aggregate()) +
                          " != committed " + *Want);
    }
  }
  return Ref;
}

void printReference(const Reference &Ref, std::ostream &Out) {
  Out << "oracle " << Ref.OracleKernels << ' ' << Ref.OraclePairs << ' '
      << Ref.OracleExecuted << '\n';
  for (size_t P = 0; P != Ref.Quick.size(); ++P)
    Out << "ref " << hex64(Ref.Quick[P]) << ' ' << hex64(Ref.Full[P]) << ' '
        << Ref.Bad[P] << '\n';
  for (const std::string &Why : Ref.Problems)
    Out << "problem " << Why << '\n';
  Out << "end\n";
}

std::optional<Reference> parseReference(const std::string &Text,
                                        size_t Programs) {
  Reference Ref;
  std::istringstream In(Text);
  std::string Line;
  bool Ended = false;
  while (!Ended && std::getline(In, Line)) {
    std::istringstream L(Line);
    std::string Tag;
    L >> Tag;
    if (Tag == "oracle") {
      L >> Ref.OracleKernels >> Ref.OraclePairs >> Ref.OracleExecuted;
    } else if (Tag == "ref") {
      std::string Quick, Full;
      bool Bad = true;
      L >> Quick >> Full >> Bad;
      Ref.Quick.push_back(std::stoull(Quick, nullptr, 16));
      Ref.Full.push_back(std::stoull(Full, nullptr, 16));
      Ref.Bad.push_back(Bad);
    } else if (Tag == "problem") {
      Ref.Problems.push_back(Line.substr(Tag.size() + 1));
    } else if (Tag == "end") {
      Ended = true;
    } else {
      return std::nullopt;
    }
    if (!L && Tag != "end")
      return std::nullopt;
  }
  if (!Ended || Ref.Quick.size() != Programs)
    return std::nullopt;
  return Ref;
}

} // namespace perfbench
