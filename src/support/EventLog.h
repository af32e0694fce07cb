//===- support/EventLog.h - Severity-tagged JSONL event journal -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured event journal: one JSONL line per notable incident —
/// degraded pairs, budget exhaustions, store quarantines/recoveries,
/// fault-injection trips, watchdog stall verdicts, flight-recorder
/// postmortems — severity-tagged and queryable by `depmon events`.
/// Counters say *how many*; the journal says *what and when*.
///
/// Schema (pdt-events-v1): the first line is a header object
///   {"schema":"pdt-events-v1","build":{...},"start":"<iso8601>"}
/// and every following line is
///   {"t_ms":N,"seq":N,"sev":"info|warn|error","layer":"core",
///    "what":"...",["req":"<id>",]"detail":"...","fields":{...}
///    [,"suppressed":N]}
/// "seq" is a per-process monotonic sequence (never reset, not even by
/// start()), so tails of several journals written by one process can
/// be totally ordered; `depmon events` prints it. "req" appears when
/// the event fired inside a serving request's RequestContext scope and
/// names that request's X-PDT-Request-Id.
///
/// Crash-safe by construction: each line reaches the kernel in one
/// write() before event() returns (support/Telemetry.h's JsonlStream),
/// so the journal survives SIGABRT without a flush hook. A bounded
/// in-memory ring of recent lines feeds the run report and the tests.
///
/// Rate limiting: a per-(layer,what) token window (default 32 events
/// per second) keeps a degradation storm from turning the journal into
/// the unbounded buffer this PR exists to eliminate; suppressed events
/// are counted and reported on the next emitted line of that key.
///
/// Armed via PDT_EVENTS=out.jsonl (file + memory) or start("") (memory
/// only, used when the watchdog or flight recorder needs a journal and
/// none was configured).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_EVENTLOG_H
#define PDT_SUPPORT_EVENTLOG_H

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace pdt {

enum class EventSeverity : unsigned { Info, Warn, Error };
constexpr unsigned NumEventSeverities = 3;
const char *eventSeverityName(EventSeverity Sev);

class EventLog {
public:
  /// Counts since start(): emitted lines by severity plus the events
  /// the rate limiter swallowed.
  struct Counts {
    std::array<uint64_t, NumEventSeverities> Emitted{};
    uint64_t Suppressed = 0;

    uint64_t emitted(EventSeverity Sev) const {
      return Emitted[static_cast<unsigned>(Sev)];
    }
    uint64_t total() const {
      uint64_t N = 0;
      for (uint64_t E : Emitted)
        N += E;
      return N;
    }
  };

  /// True while events are being journaled.
  static bool enabled();

  /// Starts journaling. \p Path empty keeps events in memory only;
  /// otherwise the file is (re)created and the pdt-events-v1 header
  /// written. Returns false when the file cannot be opened (memory
  /// journaling still starts).
  static bool start(const std::string &Path);

  /// Stops journaling and closes the file. Counts and recent lines
  /// stay readable until the next start().
  static void stop();

  /// Journals one event. \p Layer and \p What must be string literals
  /// (they key the rate limiter); \p Detail is free text; \p Fields
  /// are numeric key/values rendered into the line's "fields" object.
  /// No-op unless enabled.
  static void event(EventSeverity Sev, const char *Layer, const char *What,
                    const std::string &Detail = "",
                    std::initializer_list<std::pair<const char *, uint64_t>>
                        Fields = {});

  static Counts counts();

  /// The most recent journal lines (bounded ring; header excluded).
  static std::vector<std::string> recentLines();

  /// Reconfigures the per-(layer,what) rate limit (events per window).
  static void configureRateLimit(uint64_t MaxPerWindow, uint64_t WindowMs);

  /// Injects a fake millisecond clock (nullptr restores the real one)
  /// so the rate-limiter tests are deterministic.
  static void setClockForTest(uint64_t (*NowMs)());
};

} // namespace pdt

#endif // PDT_SUPPORT_EVENTLOG_H
