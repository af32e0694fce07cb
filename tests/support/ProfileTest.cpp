//===- tests/support/ProfileTest.cpp - Attribution profile tests ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The profile contract on synthetic event lists, where every expected
// number can be computed by hand: self time is inclusive minus direct
// children, per-kind and per-layer self time partition the total
// exactly, untagged spans inherit the nearest tagged ancestor's kind,
// and the serializations are deterministic and well-formed.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

using namespace pdt;

namespace {

TraceEvent event(const char *Name, const char *Category, uint32_t Tid,
                 int16_t Kind, int64_t StartNs, int64_t DurationNs) {
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Tid = Tid;
  E.Kind = Kind;
  E.StartNs = StartNs;
  E.DurationNs = DurationNs;
  return E;
}

const char *testNamer(int Tag) {
  switch (Tag) {
  case 2:
    return "alpha";
  case 5:
    return "beta";
  default:
    return nullptr;
  }
}

/// One thread's worth of spans with hand-computable attribution:
///
///   build[graph, untagged]         0..1000
///     siv[siv, kind 2]             100..400
///       inner[siv, untagged]       150..250   (inherits kind 2)
///     delta[delta, kind 5]         500..700
///
/// Self: build 500, siv 200, inner 100, delta 200. Total 1000.
std::vector<TraceEvent> nestedEvents(uint32_t Tid) {
  return {
      event("build", "graph", Tid, TraceEvent::NoTag, 0, 1000),
      event("siv", "siv", Tid, 2, 100, 300),
      event("inner", "siv", Tid, TraceEvent::NoTag, 150, 100),
      event("delta", "delta", Tid, 5, 500, 200),
  };
}

const ProfileEntry *rowFor(const std::vector<ProfileEntry> &Rows,
                           const std::string &Key) {
  for (const ProfileEntry &E : Rows)
    if (E.Key == Key)
      return &E;
  return nullptr;
}

int64_t selfOf(const std::vector<ProfileEntry> &Rows) {
  int64_t Sum = 0;
  for (const ProfileEntry &E : Rows)
    Sum += E.SelfNs;
  return Sum;
}

} // namespace

TEST(Profile, SelfTimeIsInclusiveMinusDirectChildren) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  ASSERT_EQ(P.NumEvents, 4u);
  EXPECT_EQ(P.RootInclusiveNs, 1000);
  EXPECT_EQ(P.TotalSelfNs, 1000);

  const ProfileEntry *Build = rowFor(P.BySite, "build");
  const ProfileEntry *Siv = rowFor(P.BySite, "siv");
  const ProfileEntry *Inner = rowFor(P.BySite, "inner");
  const ProfileEntry *Delta = rowFor(P.BySite, "delta");
  ASSERT_TRUE(Build && Siv && Inner && Delta);
  EXPECT_EQ(Build->SelfNs, 500);
  EXPECT_EQ(Build->InclusiveNs, 1000);
  EXPECT_EQ(Build->Calls, 1u);
  EXPECT_EQ(Siv->SelfNs, 200);
  EXPECT_EQ(Siv->InclusiveNs, 300);
  EXPECT_EQ(Inner->SelfNs, 100);
  EXPECT_EQ(Delta->SelfNs, 200);
}

TEST(Profile, KindAndLayerSelfTimePartitionTheTotal) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  EXPECT_EQ(selfOf(P.ByKind), P.TotalSelfNs);
  EXPECT_EQ(selfOf(P.ByLayer), P.TotalSelfNs);
  EXPECT_EQ(selfOf(P.BySite), P.TotalSelfNs);

  const ProfileEntry *Graph = rowFor(P.ByLayer, "graph");
  const ProfileEntry *Siv = rowFor(P.ByLayer, "siv");
  const ProfileEntry *Delta = rowFor(P.ByLayer, "delta");
  ASSERT_TRUE(Graph && Siv && Delta);
  EXPECT_EQ(Graph->SelfNs, 500);
  EXPECT_EQ(Siv->SelfNs, 300); // siv(200) + inner(100)
  EXPECT_EQ(Delta->SelfNs, 200);
}

TEST(Profile, UntaggedSpansInheritNearestTaggedAncestor) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  // "inner" is untagged but nested under the kind-2 span, so its self
  // time lands in "alpha"; the untagged root lands in "other".
  const ProfileEntry *Alpha = rowFor(P.ByKind, "alpha");
  const ProfileEntry *Beta = rowFor(P.ByKind, "beta");
  const ProfileEntry *Other = rowFor(P.ByKind, "other");
  ASSERT_TRUE(Alpha && Beta && Other);
  EXPECT_EQ(Alpha->SelfNs, 300);
  EXPECT_EQ(Beta->SelfNs, 200);
  EXPECT_EQ(Other->SelfNs, 500);
}

TEST(Profile, UnnamedTagFallsBackToNumericKey) {
  std::vector<TraceEvent> Events = {
      event("mystery", "pdt", 1, 9, 0, 100),
  };
  Profile P = Profile::build(Events, testNamer);
  const ProfileEntry *Kind9 = rowFor(P.ByKind, "kind9");
  ASSERT_TRUE(Kind9);
  EXPECT_EQ(Kind9->SelfNs, 100);
}

TEST(Profile, ThreadsContributeIndependentRoots) {
  std::vector<TraceEvent> Events = nestedEvents(1);
  std::vector<TraceEvent> T2 = nestedEvents(2);
  Events.insert(Events.end(), T2.begin(), T2.end());
  Profile P = Profile::build(Events, testNamer);
  EXPECT_EQ(P.RootInclusiveNs, 2000);
  EXPECT_EQ(P.TotalSelfNs, 2000);
  // Same names on both threads merge into one row with doubled time.
  const ProfileEntry *Build = rowFor(P.BySite, "build");
  ASSERT_TRUE(Build);
  EXPECT_EQ(Build->Calls, 2u);
  EXPECT_EQ(Build->SelfNs, 1000);
}

TEST(Profile, SiblingRootsBothCountAsRootTime) {
  std::vector<TraceEvent> Events = {
      event("first", "pdt", 1, TraceEvent::NoTag, 0, 100),
      event("second", "pdt", 1, TraceEvent::NoTag, 200, 300),
  };
  Profile P = Profile::build(Events, testNamer);
  EXPECT_EQ(P.RootInclusiveNs, 400);
  EXPECT_EQ(P.TotalSelfNs, 400);
}

TEST(Profile, InputOrderDoesNotMatter) {
  std::vector<TraceEvent> Events = nestedEvents(1);
  std::vector<TraceEvent> T2 = nestedEvents(2);
  Events.insert(Events.end(), T2.begin(), T2.end());
  Profile Sorted = Profile::build(Events, testNamer);
  std::mt19937 Rng(7);
  std::shuffle(Events.begin(), Events.end(), Rng);
  Profile Shuffled = Profile::build(Events, testNamer);
  EXPECT_EQ(Sorted.toJson(), Shuffled.toJson());
  EXPECT_EQ(Sorted.toCollapsed(), Shuffled.toCollapsed());
}

TEST(Profile, CollapsedStacksCarryFullPathsAndSelfTime) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  std::string Folded = P.toCollapsed();
  EXPECT_NE(Folded.find("build 500\n"), std::string::npos);
  EXPECT_NE(Folded.find("build;siv 200\n"), std::string::npos);
  EXPECT_NE(Folded.find("build;siv;inner 100\n"), std::string::npos);
  EXPECT_NE(Folded.find("build;delta 200\n"), std::string::npos);
}

TEST(Profile, FrameNamesAreSanitizedForTheFoldedFormat) {
  // ';' separates stack frames and ' ' separates the value: both must
  // be rewritten inside a frame name or downstream tools misparse.
  std::vector<TraceEvent> Events = {
      event("odd name;x", "pdt", 1, TraceEvent::NoTag, 0, 50),
  };
  Profile P = Profile::build(Events, testNamer);
  ASSERT_EQ(P.Stacks.size(), 1u);
  EXPECT_EQ(P.Stacks[0].first, "odd_name_x");
}

TEST(Profile, JsonIsWellFormedAndCarriesTheSchema) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  std::string Error;
  std::optional<json::Value> V = json::parse(P.toJson(), &Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->stringAt("schema").value_or(""), "pdt-profile-v1");
  EXPECT_EQ(V->uintAt("events").value_or(0), 4u);
  EXPECT_EQ(V->uintAt("total_self_ns").value_or(0), 1000u);
  EXPECT_EQ(V->uintAt("root_inclusive_ns").value_or(0), 1000u);
  const json::Value *ByKind = V->find("by_kind");
  ASSERT_TRUE(ByKind && ByKind->isArray());
  EXPECT_EQ(ByKind->asArray().size(), 3u);
}

TEST(Profile, EntriesAreSortedByKey) {
  Profile P = Profile::build(nestedEvents(1), testNamer);
  for (const std::vector<ProfileEntry> *Rows :
       {&P.BySite, &P.ByLayer, &P.ByKind})
    for (size_t I = 1; I < Rows->size(); ++I)
      EXPECT_LT((*Rows)[I - 1].Key, (*Rows)[I].Key);
  for (size_t I = 1; I < P.Stacks.size(); ++I)
    EXPECT_LT(P.Stacks[I - 1].first, P.Stacks[I].first);
}

TEST(Profile, EmptyEventListYieldsEmptyProfile) {
  Profile P = Profile::build({}, testNamer);
  EXPECT_EQ(P.NumEvents, 0u);
  EXPECT_EQ(P.TotalSelfNs, 0);
  EXPECT_EQ(P.RootInclusiveNs, 0);
  EXPECT_TRUE(P.BySite.empty());
  std::string Error;
  EXPECT_TRUE(json::parse(P.toJson(), &Error)) << Error;
  EXPECT_EQ(P.toCollapsed(), "");
}

TEST(Profile, FromTraceMatchesArmedSpans) {
  Trace::start("");
  {
    Span Outer("ProfileTest::outer", "test");
    Span Inner("ProfileTest::inner", "test", /*KindTag=*/2);
  }
  Trace::stop();
  Profile P = Profile::fromTrace(testNamer);
  Trace::clear();
  ASSERT_EQ(P.NumEvents, 2u);
  EXPECT_EQ(P.TotalSelfNs, P.RootInclusiveNs);
  ASSERT_TRUE(rowFor(P.BySite, "ProfileTest::outer"));
  ASSERT_TRUE(rowFor(P.ByKind, "alpha"));
  EXPECT_EQ(selfOf(P.ByKind), P.TotalSelfNs);
}
