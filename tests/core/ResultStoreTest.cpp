//===- tests/core/ResultStoreTest.cpp -----------------------------------------===//
//
// The persistent result cache's correctness contract: canonical keys
// unify alpha-renamed and bound-shifted nests, warm runs are
// byte-identical to cold runs (graphs and statistics), generation skew
// from an analyzer-options change invalidates wholesale, degraded
// results are never persisted, and a store killed mid-write at every
// injected I/O site recovers to byte-identical verdicts.
//
//===----------------------------------------------------------------------===//

#include "core/ResultStore.h"

#include "driver/Analyzer.h"
#include "support/FaultInjector.h"

#include "../TestHelpers.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

using namespace pdt;
using namespace pdt::test;

namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("pdt-rstore-test-" + std::to_string(::getpid()) + "-" + Tag + "-" +
            std::to_string(Counter++));
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// RAII activation of the process-wide store; deactivates on scope
/// exit so no test leaks a store into the next.
struct ActiveStore {
  ActiveStore(const std::string &Dir, const AnalyzerOptions &Opt) {
    EXPECT_TRUE(ResultStore::activate(Dir, analyzerOptionsFingerprint(Opt)));
  }
  ~ActiveStore() { ResultStore::deactivate(); }
};

AnalyzerOptions plainOptions() {
  AnalyzerOptions Opt;
  Opt.NumThreads = 1; // Deterministic pair order for stat comparisons.
  return Opt;
}

AnalysisResult analyze(const std::string &Source) {
  AnalysisResult R = analyzeSource(Source, "store-test", plainOptions());
  EXPECT_TRUE(R.Parsed);
  return R;
}

/// A kernel exercising SIV distances, a coupled group, and an MIV
/// subscript — enough shape variety that hint dehydration runs too.
const char *const Kernel = R"(
do i = 2, 60
  do j = 1, 40
    a(i, j) = a(i-1, j+2) + b(i+j) + c(j)
    b(i) = a(i, j) + c(j-1)
  end do
end do
)";

/// The same kernel alpha-renamed (i,j -> p,q) and bound-shifted
/// (p starts at 7 instead of 2, every use compensated by -5): its
/// canonical content is identical to Kernel's.
const char *const RenamedShiftedKernel = R"(
do p = 7, 65
  do q = 1, 40
    a(p-5, q) = a(p-6, q+2) + b(p+q-5) + c(q)
    b(p-5) = a(p-5, q) + c(q-1)
  end do
end do
)";

TEST(ResultStore, CanonicalizeUnifiesRenamedShiftedNests) {
  LoopNestContext A = singleLoop("i", 2, 11);
  LoopNestContext B = singleLoop("k", 5, 14);
  // A(i) = A(i-1) over i in [2,11]  vs  A(k-3) = A(k-4) over k in [5,14]:
  // both normalize to level %0 in [0,9].
  std::vector<SubscriptPair> SubsA = {
      SubscriptPair(LinearExpr::index("i"),
                    LinearExpr::index("i") - LinearExpr(1), 0)};
  std::vector<SubscriptPair> SubsB = {
      SubscriptPair(LinearExpr::index("k") - LinearExpr(3),
                    LinearExpr::index("k") - LinearExpr(4), 0)};
  std::optional<CanonicalPair> QA = ResultStore::canonicalize(SubsA, A);
  std::optional<CanonicalPair> QB = ResultStore::canonicalize(SubsB, B);
  ASSERT_TRUE(QA);
  ASSERT_TRUE(QB);
  EXPECT_EQ(QA->Key, QB->Key);
  EXPECT_EQ(QA->Shift, (std::vector<int64_t>{2}));
  EXPECT_EQ(QB->Shift, (std::vector<int64_t>{5}));

  // A genuinely different access must not collide.
  std::vector<SubscriptPair> SubsC = {
      SubscriptPair(LinearExpr::index("i"),
                    LinearExpr::index("i") - LinearExpr(2), 0)};
  std::optional<CanonicalPair> QC = ResultStore::canonicalize(SubsC, A);
  ASSERT_TRUE(QC);
  EXPECT_NE(QC->Key, QA->Key);
}

TEST(ResultStore, RenamedShiftedProgramsHitEachOthersRecords) {
  AnalysisResult Baseline = analyze(Kernel);
  AnalysisResult BaselineRenamed = analyze(RenamedShiftedKernel);

  TempDir Dir("alpha");
  ActiveStore Store(Dir.str(), plainOptions());
  AnalysisResult Cold = analyze(Kernel);
  EXPECT_EQ(Cold.Graph.str(), Baseline.Graph.str());
  EXPECT_GT(Cold.Stats.StoreMisses, 0u);
  EXPECT_EQ(Cold.Stats.StoreHits, 0u);

  AnalysisResult Renamed = analyze(RenamedShiftedKernel);
  EXPECT_EQ(Renamed.Graph.str(), BaselineRenamed.Graph.str());
  EXPECT_GT(Renamed.Stats.StoreHits, 0u)
      << "alpha-renamed, bound-shifted kernel missed every shared record";
  EXPECT_EQ(Renamed.Stats.StoreMisses, 0u);
  // Served answers count as results exactly like computed ones.
  EXPECT_EQ(Renamed.Stats, BaselineRenamed.Stats);
}

TEST(ResultStore, WarmRunAcrossReopenIsByteIdentical) {
  AnalysisResult Baseline = analyze(Kernel);

  TempDir Dir("warm");
  {
    ActiveStore Store(Dir.str(), plainOptions());
    AnalysisResult Cold = analyze(Kernel);
    EXPECT_EQ(Cold.Graph.str(), Baseline.Graph.str());
    EXPECT_EQ(Cold.Stats, Baseline.Stats);
    EXPECT_GT(Cold.Stats.StoreMisses, 0u);
  }
  // Fresh activation = fresh process: everything replayed from disk.
  ActiveStore Store(Dir.str(), plainOptions());
  AnalysisResult Warm = analyze(Kernel);
  EXPECT_EQ(Warm.Graph.str(), Baseline.Graph.str());
  EXPECT_EQ(Warm.Stats, Baseline.Stats)
      << "replayed TestStats deltas must make a warm run's statistics "
         "indistinguishable from a cold run's";
  EXPECT_GT(Warm.Stats.StoreHits, 0u);
  EXPECT_EQ(Warm.Stats.StoreMisses, 0u);
}

TEST(ResultStore, OptionsSkewInvalidatesWholesale) {
  TempDir Dir("skew");
  {
    ActiveStore Store(Dir.str(), plainOptions());
    analyze(Kernel);
  }
  AnalyzerOptions Other = plainOptions();
  Other.DefaultSymbolRange = Interval(0, 7);
  ASSERT_NE(analyzerOptionsFingerprint(Other),
            analyzerOptionsFingerprint(plainOptions()));
  {
    // Different options fingerprint: every record of the old
    // generation must be invalidated, so the run is fully cold.
    ActiveStore Store(Dir.str(), Other);
    std::shared_ptr<ResultStore> Active = ResultStore::active();
    ASSERT_TRUE(Active);
    EXPECT_EQ(Active->size(), 0u);
    EXPECT_GE(Active->recoveryStats().StaleSegments, 1u);
    AnalysisResult R = analyzeSource(Kernel, "store-test", Other);
    EXPECT_EQ(R.Stats.StoreHits, 0u);
    EXPECT_GT(R.Stats.StoreMisses, 0u);
  }
  // And returning to the original options does not resurrect them.
  ActiveStore Store(Dir.str(), plainOptions());
  AnalysisResult R = analyze(Kernel);
  EXPECT_EQ(R.Stats.StoreHits, 0u);
}

TEST(ResultStore, BypassGuardHidesTheStoreOnThisThread) {
  TempDir Dir("bypass");
  ActiveStore Store(Dir.str(), plainOptions());
  ASSERT_TRUE(ResultStore::active());
  {
    StoreBypassGuard Guard;
    EXPECT_FALSE(ResultStore::active());
    {
      StoreBypassGuard Nested;
      EXPECT_FALSE(ResultStore::active());
    }
    EXPECT_FALSE(ResultStore::active());
  }
  EXPECT_TRUE(ResultStore::active());
}

TEST(ResultStore, DegradedResultsAreNeverPersisted) {
  TempDir Dir("degraded");
  ActiveStore Store(Dir.str(), plainOptions());
  std::shared_ptr<ResultStore> Active = ResultStore::active();
  ASSERT_TRUE(Active);

  LoopNestContext Ctx = singleLoop("i", 1, 10);
  std::vector<SubscriptPair> Subs = {
      SubscriptPair(LinearExpr::index("i"),
                    LinearExpr::index("i") - LinearExpr(1), 0)};
  std::optional<CanonicalPair> Q = ResultStore::canonicalize(Subs, Ctx);
  ASSERT_TRUE(Q);

  DependenceTestResult Degraded;
  Degraded.TheVerdict = Verdict::Maybe;
  Degraded.Degraded = true;
  Active->insert(*Q, Degraded, TestStats());
  EXPECT_EQ(Active->size(), 0u)
      << "a degraded (possibly transient) result was persisted";

  DependenceTestResult Sound = Degraded;
  Sound.Degraded = false;
  Active->insert(*Q, Sound, TestStats());
  EXPECT_EQ(Active->size(), 1u);
}

TEST(ResultStore, CorruptedSegmentsHealToIdenticalVerdicts) {
  AnalysisResult Baseline = analyze(Kernel);
  TempDir Dir("corrupt");
  {
    ActiveStore Store(Dir.str(), plainOptions());
    analyze(Kernel);
  }
  // Flip one byte in the middle of every segment file.
  unsigned Flipped = 0;
  for (const auto &Entry : fs::directory_iterator(Dir.Path)) {
    if (!Entry.is_regular_file())
      continue;
    std::fstream F(Entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(0, std::ios::end);
    std::streamoff Size = F.tellg();
    ASSERT_GT(Size, 0);
    F.seekp(Size / 2);
    char C;
    F.seekg(Size / 2);
    F.get(C);
    F.seekp(Size / 2);
    F.put(static_cast<char>(C ^ 0x7F));
    ++Flipped;
  }
  ASSERT_GT(Flipped, 0u);

  ActiveStore Store(Dir.str(), plainOptions());
  std::shared_ptr<ResultStore> Active = ResultStore::active();
  ASSERT_TRUE(Active);
  EXPECT_GE(Active->recoveryStats().Quarantined, 1u);
  AnalysisResult Healed = analyze(Kernel);
  EXPECT_EQ(Healed.Graph.str(), Baseline.Graph.str());
  EXPECT_EQ(Healed.Stats, Baseline.Stats);
}

// The kill-mid-write gate: a process that dies with an io_* fault
// injected at any site must leave a directory from which the next
// activation recovers byte-identical verdicts. The child skips all
// teardown (_exit), so nothing is flushed beyond what the injected
// fault left behind.
TEST(ResultStore, KillMidWriteRecoversIdenticalVerdictsAtEverySite) {
  AnalysisResult Baseline = analyze(Kernel);

  constexpr IoFaultKind Kinds[] = {IoFaultKind::Open, IoFaultKind::Write,
                                   IoFaultKind::Fsync, IoFaultKind::TornTail};
  for (IoFaultKind Kind : Kinds) {
    for (uint64_t Site = 1; Site <= 4; ++Site) {
      TempDir Dir("kill");
      pid_t Child = fork();
      ASSERT_GE(Child, 0);
      if (Child == 0) {
        // In the child: die (no destructors, no flush) right after the
        // faulted analysis. Any crash here shows up as a non-zero exit.
        FaultInjector::armIo(Kind, Site);
        if (!ResultStore::activate(Dir.str(), analyzerOptionsFingerprint(
                                                  plainOptions())))
          _exit(3);
        AnalysisResult R =
            analyzeSource(Kernel, "store-test", plainOptions());
        _exit(R.Parsed && R.Graph.str() == Baseline.Graph.str() ? 0 : 4);
      }
      int Status = 0;
      ASSERT_EQ(waitpid(Child, &Status, 0), Child);
      ASSERT_TRUE(WIFEXITED(Status))
          << ioFaultKindName(Kind) << "@" << Site << " crashed the child";
      ASSERT_EQ(WEXITSTATUS(Status), 0)
          << ioFaultKindName(Kind) << "@" << Site
          << " changed verdicts or failed activation in the child";

      // The survivor image, whatever it is, must recover to the same
      // answers.
      ActiveStore Store(Dir.str(), plainOptions());
      AnalysisResult Recovered = analyze(Kernel);
      EXPECT_EQ(Recovered.Graph.str(), Baseline.Graph.str())
          << ioFaultKindName(Kind) << "@" << Site;
      EXPECT_EQ(Recovered.Stats, Baseline.Stats)
          << ioFaultKindName(Kind) << "@" << Site;
    }
  }
}

TEST(ResultStore, BrokenStoreStillServesAndAnalysisSucceeds) {
  AnalysisResult Baseline = analyze(Kernel);
  TempDir Dir("brokenserve");
  struct InjectorGuard {
    ~InjectorGuard() { FaultInjector::disarm(); }
  } Guard;
  FaultInjector::armIo(IoFaultKind::Write, 1);
  ActiveStore Store(Dir.str(), plainOptions());
  AnalysisResult R = analyze(Kernel);
  EXPECT_EQ(R.Graph.str(), Baseline.Graph.str());
  std::shared_ptr<ResultStore> Active = ResultStore::active();
  ASSERT_TRUE(Active);
  EXPECT_TRUE(Active->broken());
}

} // namespace
