//===- support/Profile.cpp - Attribution profile over trace spans ---------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <map>

using namespace pdt;

namespace {

std::atomic<Profile::TagNamer> DefaultNamer{nullptr};

/// Span names become flamegraph frame names; the folded format
/// reserves ';' (stack separator) and ' ' (value separator).
void appendFrame(std::string &Path, const char *Name) {
  for (; *Name; ++Name)
    Path += (*Name == ';' || *Name == ' ') ? '_' : *Name;
}

struct Tables {
  std::map<std::string, ProfileEntry> Site, Layer, Kind;
  std::map<std::string, int64_t> Paths;
};

void bump(std::map<std::string, ProfileEntry> &Table, const std::string &Key,
          int64_t InclusiveNs) {
  ProfileEntry &E = Table[Key];
  E.Calls += 1;
  E.InclusiveNs += InclusiveNs;
}

std::vector<ProfileEntry> toRows(std::map<std::string, ProfileEntry> &Table) {
  std::vector<ProfileEntry> Rows;
  Rows.reserve(Table.size());
  for (auto &[Key, E] : Table) {
    E.Key = Key;
    Rows.push_back(std::move(E));
  }
  return Rows;
}

void appendRows(std::string &Out, const char *Name,
                const std::vector<ProfileEntry> &Rows) {
  Out += "\"";
  Out += Name;
  Out += "\": [";
  bool First = true;
  for (const ProfileEntry &E : Rows) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "  {\"key\": \"" + json::escape(E.Key) +
           "\", \"calls\": " + std::to_string(E.Calls) +
           ", \"inclusive_ns\": " + std::to_string(E.InclusiveNs) +
           ", \"self_ns\": " + std::to_string(E.SelfNs) + "}";
  }
  Out += Rows.empty() ? "]" : "\n]";
}

} // namespace

Profile Profile::build(std::vector<TraceEvent> Events, TagNamer Namer) {
  if (!Namer)
    Namer = tagNamer();

  // Same order snapshot() guarantees; re-established here so build()
  // accepts events from any source.
  std::sort(Events.begin(), Events.end(), spanPrecedes);

  auto kindKey = [&](int Tag) -> std::string {
    if (Tag == TraceEvent::NoTag)
      return "other";
    if (Namer)
      if (const char *Name = Namer(Tag))
        return Name;
    return "kind" + std::to_string(Tag);
  };

  Profile P;
  P.NumEvents = Events.size();
  Tables T;

  struct Frame {
    const TraceEvent *E;
    int64_t EndNs;
    int64_t ChildNs = 0; // direct children's inclusive time
    int EffectiveKind;
    std::string Path;
  };
  std::vector<Frame> Stack;

  auto retire = [&](Frame &F) {
    // Children nest inside the parent interval on the same clock, so
    // this never goes negative.
    int64_t Self = F.E->DurationNs - F.ChildNs;
    P.TotalSelfNs += Self;
    T.Site[F.E->Name].SelfNs += Self;
    T.Layer[F.E->Category ? F.E->Category : "pdt"].SelfNs += Self;
    T.Kind[kindKey(F.EffectiveKind)].SelfNs += Self;
    T.Paths[F.Path] += Self;
  };

  for (const TraceEvent &E : Events) {
    while (!Stack.empty() && (Stack.back().E->Tid != E.Tid ||
                              E.StartNs >= Stack.back().EndNs)) {
      retire(Stack.back());
      Stack.pop_back();
    }

    Frame F;
    F.E = &E;
    F.EndNs = E.StartNs + E.DurationNs;
    if (Stack.empty()) {
      P.RootInclusiveNs += E.DurationNs;
      F.EffectiveKind = E.Kind;
    } else {
      Frame &Parent = Stack.back();
      Parent.ChildNs += E.DurationNs;
      F.EffectiveKind =
          E.Kind != TraceEvent::NoTag ? E.Kind : Parent.EffectiveKind;
      F.Path = Parent.Path;
      F.Path += ';';
    }
    appendFrame(F.Path, E.Name);

    bump(T.Site, E.Name, E.DurationNs);
    bump(T.Layer, E.Category ? E.Category : "pdt", E.DurationNs);
    bump(T.Kind, kindKey(F.EffectiveKind), E.DurationNs);

    Stack.push_back(std::move(F));
  }
  while (!Stack.empty()) {
    retire(Stack.back());
    Stack.pop_back();
  }

  P.BySite = toRows(T.Site);
  P.ByLayer = toRows(T.Layer);
  P.ByKind = toRows(T.Kind);
  P.Stacks.reserve(T.Paths.size());
  for (auto &[Path, SelfNs] : T.Paths)
    P.Stacks.emplace_back(Path, SelfNs);
  return P;
}

Profile Profile::fromTrace(TagNamer Namer) {
  return build(Trace::snapshot(), Namer);
}

std::string Profile::toJson() const {
  std::string Out;
  Out.reserve(4096);
  Out += "{\n\"schema\": \"pdt-profile-v1\",\n";
  Out += "\"events\": " + std::to_string(NumEvents) + ",\n";
  Out += "\"total_self_ns\": " + std::to_string(TotalSelfNs) + ",\n";
  Out += "\"root_inclusive_ns\": " + std::to_string(RootInclusiveNs) + ",\n";
  appendRows(Out, "by_site", BySite);
  Out += ",\n";
  appendRows(Out, "by_layer", ByLayer);
  Out += ",\n";
  appendRows(Out, "by_kind", ByKind);
  Out += ",\n\"stacks\": [";
  bool First = true;
  for (const auto &[Path, SelfNs] : Stacks) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "  {\"stack\": \"" + json::escape(Path) +
           "\", \"self_ns\": " + std::to_string(SelfNs) + "}";
  }
  Out += Stacks.empty() ? "]\n}\n" : "\n]\n}\n";
  return Out;
}

std::string Profile::toCollapsed() const {
  std::string Out;
  Out.reserve(Stacks.size() * 48);
  for (const auto &[Path, SelfNs] : Stacks) {
    Out += Path;
    Out += ' ';
    Out += std::to_string(SelfNs);
    Out += '\n';
  }
  return Out;
}

void Profile::setTagNamer(TagNamer Namer) {
  DefaultNamer.store(Namer, std::memory_order_relaxed);
}

Profile::TagNamer Profile::tagNamer() {
  return DefaultNamer.load(std::memory_order_relaxed);
}
