//===- support/RequestContext.h - Thread-propagated request IDs -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-identity substrate for per-request observability: a
/// small process-wide intern table of request-ID strings plus one
/// thread-local "current request" token that every telemetry sink
/// reads at record time. A serving request adopts the client's
/// X-PDT-Request-Id (or mints one from the process-wide sequence),
/// opens a RequestContext::Scope, and from then on every pdt::Span,
/// journal line, and flight-recorder slot produced on that thread
/// carries the originating request's ID. The scope is per thread: a
/// request analyzes its kernels on the thread that routes it.
///
/// Tokens, not strings, flow through the hot paths: TraceEvent stores
/// a 4-byte token; the string is resolved only at dump/render time
/// through idFor(). The intern table is a fixed ring (RecentCapacity
/// slots), so memory stays bounded no matter how many requests a
/// long-running daemon serves; a token whose slot was recycled
/// resolves to "" and its spans simply lose attribution — acceptable
/// for telemetry that is itself bounded (flight rings, recent-event
/// windows).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_REQUESTCONTEXT_H
#define PDT_SUPPORT_REQUESTCONTEXT_H

#include <cstdint>
#include <string>

namespace pdt {

class RequestContext {
public:
  /// The "no request" token: spans recorded outside any request scope
  /// carry it and render without a req tag.
  static constexpr uint32_t None = 0;

  /// Intern-table slots. Tokens older than this many interns resolve
  /// to "" (their slot was recycled).
  static constexpr uint32_t RecentCapacity = 1024;

  /// Interns \p Id and returns its nonzero token. Bounded: the oldest
  /// entry is recycled once RecentCapacity newer IDs exist.
  static uint32_t intern(const std::string &Id);

  /// The interned string for \p Token; "" for None or a recycled slot.
  static std::string idFor(uint32_t Token);

  /// The calling thread's current request token (None outside any
  /// Scope).
  static uint32_t current();

  /// The next value of the process-wide request sequence (starts at 1,
  /// never reused). Mint deterministic IDs as mint(nextSequence()).
  static uint64_t nextSequence();

  /// The canonical minted ID for sequence number \p Sequence
  /// ("pdt-<seq>").
  static std::string mint(uint64_t Sequence);

  /// True when \p Id is acceptable as a client-supplied request ID:
  /// 1..64 characters drawn from [A-Za-z0-9._-]. Anything else is
  /// treated as absent by the serving layer (a minted ID replaces it),
  /// so hostile header values can never corrupt logs or JSON.
  static bool validId(const std::string &Id);

  /// RAII adoption of a request identity by the current thread.
  /// Restores the previous token on destruction, so scopes nest.
  class Scope {
  public:
    explicit Scope(uint32_t Token);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    uint32_t Prev;
  };
};

} // namespace pdt

#endif // PDT_SUPPORT_REQUESTCONTEXT_H
