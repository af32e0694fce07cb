//===- support/Profile.h - Attribution profile over trace spans -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the raw per-thread span buffers (support/Trace.h) into an
/// attribution profile: who spent the time, not just when. Three
/// aggregations are computed from one pass over the sorted events:
///
///   * by site — the span name ("DependenceGraph::build",
///     "SIVTest::strong", ...): calls, inclusive time, self time;
///   * by layer — the span category ("graph", "siv", "delta", ...);
///   * by kind — the TestKind tag the core layer stores on its test
///     spans. Support stays ignorant of the enum: tags are plain ints
///     and a caller-supplied function names them. Untagged spans
///     inherit the nearest tagged ancestor's kind; spans with no
///     tagged ancestor land in the "other" bucket, so per-kind self
///     time always partitions the total exactly.
///
/// Self time is inclusive time minus the direct children's inclusive
/// time, computed by a stack walk that relies on the snapshot() sort
/// order (spanPrecedes: per thread, start ascending, duration
/// descending — parents strictly precede their children). Two
/// invariants hold by construction and are asserted by the profiling
/// tests:
///
///   TotalSelfNs == sum of every root span's inclusive time, and
///   sum(ByKind[*].SelfNs) == TotalSelfNs (same for ByLayer).
///
/// Inclusive time is the usual naive-profiler sum: recursive or
/// repeated nesting of the same key double-counts, so only self time
/// is guaranteed to partition wall time.
///
/// The profile serializes two ways: a canonical JSON document (stable
/// key order, entries sorted by key — deterministic for a
/// deterministic workload up to timing values) and collapsed
/// flamegraph stacks ("root;child;leaf selfns" lines, one per unique
/// path, ready for flamegraph.pl or speedscope).
///
/// PDT_PROFILE=out.json arms tracing at startup and writes the profile
/// at process exit (crash-safe, like PDT_TRACE / PDT_METRICS; armed by
/// support/Telemetry.h).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_PROFILE_H
#define PDT_SUPPORT_PROFILE_H

#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pdt {

/// One row of an attribution table.
struct ProfileEntry {
  std::string Key;
  uint64_t Calls = 0;
  int64_t InclusiveNs = 0;
  int64_t SelfNs = 0;
};

/// The aggregated profile. Build one with Profile::build (from any
/// event list) or Profile::fromTrace (from the live trace buffers).
class Profile {
public:
  /// Names a kind tag (the int the core layer stored on the span).
  /// Returning nullptr for a tag falls back to a numeric "kind<N>"
  /// key.
  using TagNamer = const char *(*)(int);

  /// Entries sorted by Key ascending (deterministic order; display
  /// tools re-sort by self time).
  std::vector<ProfileEntry> BySite;
  std::vector<ProfileEntry> ByLayer;
  std::vector<ProfileEntry> ByKind;

  /// Folded flamegraph stacks: ("a;b;c", self ns), merged across
  /// threads, sorted by path.
  std::vector<std::pair<std::string, int64_t>> Stacks;

  /// Sum of every span's self time == sum of every root span's
  /// inclusive time (the profile's measure of attributed wall time,
  /// summed across threads).
  int64_t TotalSelfNs = 0;
  int64_t RootInclusiveNs = 0;
  uint64_t NumEvents = 0;

  /// Aggregates \p Events (any order; re-sorted internally). \p Namer
  /// may be nullptr: kind keys then fall back to tagNamer(), then to
  /// "kind<N>".
  static Profile build(std::vector<TraceEvent> Events,
                       TagNamer Namer = nullptr);

  /// build(Trace::snapshot()).
  static Profile fromTrace(TagNamer Namer = nullptr);

  /// Canonical JSON document (ends in a newline).
  std::string toJson() const;

  /// Collapsed flamegraph lines, "path;to;span <selfns>\n" each.
  std::string toCollapsed() const;

  /// Process-wide default tag namer. The driver layer installs the
  /// TestKind bridge here so env-armed profiles (PDT_PROFILE) get
  /// symbolic kind names without support depending on core.
  static void setTagNamer(TagNamer Namer);
  static TagNamer tagNamer();
};

} // namespace pdt

#endif // PDT_SUPPORT_PROFILE_H
