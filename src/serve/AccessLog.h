//===- serve/AccessLog.h - Per-request pdt-access-v1 JSONL ------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving access log: exactly one JSONL line per HTTP request
/// depserved answers — routed requests, malformed-HTTP rejections,
/// mid-request timeouts, and accept-time 429s alike — so operators can
/// account for every request the daemon touched and join each one
/// against spans, journal events, and flight dumps by request ID.
///
/// Schema (pdt-access-v1): the first line is a header object
///   {"schema":"pdt-access-v1","build":{...},"start":"<iso8601>"}
/// and every following line is
///   {"t_ms":N,"id":"<request id>","route":"POST /v1/analyze",
///    "status":200,"bytes_in":N,"bytes_out":N,"wall_ns":N,
///    "queue_ns":N,"analyze_ns":N,"analyses":N,
///    "stats":{"reference_pairs":N,"proven_independent":N,
///             "degraded":N},
///    "routing":{"batched_ziv":N,"batched_strong_siv":N,
///               "scalar_fallback":N,"store_hits":N,"store_misses":N}}
/// "stats" and "routing" are per-request deltas (this request's
/// TestStats contribution), not running totals. bytes_in/bytes_out
/// count body bytes. queue_ns is the time the connection waited in the
/// admission queue (first request of a connection only).
///
/// Deliberately exempt from the journal's per-key rate limiter — the
/// accounting contract is one line per request, enforced under
/// saturation by bench_x11_reqobs — and crash-safe the same way the
/// journal is: every line reaches the kernel (one write(), through
/// support/Telemetry.h's JsonlStream) before append() returns.
///
/// Armed via PDT_ACCESS_LOG=path (depserved: --access-log; read by a
/// static initializer in AccessLog.cpp) or programmatically with
/// start(); disarmed, append() is one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SERVE_ACCESSLOG_H
#define PDT_SERVE_ACCESSLOG_H

#include <cstdint>
#include <string>

namespace pdt {
namespace serve {

/// One request's access-line payload.
struct AccessRecord {
  std::string Id;    ///< The request ID (client-supplied or minted).
  std::string Route; ///< "METHOD /path"; "-" when no request line parsed.
  int Status = 0;
  uint64_t BytesIn = 0;  ///< Request body bytes.
  uint64_t BytesOut = 0; ///< Response body bytes.
  uint64_t WallNs = 0;   ///< route + respond, as the server measured it.
  uint64_t QueueNs = 0;  ///< Admission-queue wait (0 after the first
                         ///< request of a keep-alive connection).
  uint64_t AnalyzeNs = 0; ///< Parsing and analyzing the kernels.
  uint64_t Analyses = 0;  ///< Kernels analyzed to completion.
  // Per-request TestStats deltas.
  uint64_t ReferencePairs = 0;
  uint64_t IndependentPairs = 0;
  uint64_t DegradedResults = 0;
  // Per-request routing deltas (where answers came from).
  uint64_t BatchedZIV = 0;
  uint64_t BatchedStrongSIV = 0;
  uint64_t ScalarFallback = 0;
  uint64_t StoreHits = 0;
  uint64_t StoreMisses = 0;
};

/// Process-wide access-log sink (depserved runs one server per
/// process; the serving tests arm and disarm it per fixture).
class AccessLog {
public:
  /// True while lines are being written.
  static bool enabled();

  /// (Re)creates \p Path and writes the pdt-access-v1 header. False
  /// when the file cannot be opened (the log stays disarmed).
  static bool start(const std::string &Path);

  /// Disarms and closes the file.
  static void stop();

  /// Appends one line (no-op unless enabled). Never rate-limited;
  /// formatted outside the lock and handed to the kernel in a single
  /// write() before returning.
  static void append(const AccessRecord &R);

  /// Lines appended since start() (header excluded).
  static uint64_t linesWritten();

  /// Stashes the admission-queue wait the socket layer measured for
  /// the connection the calling thread is about to serve; the next
  /// takeQueueNs() on this thread consumes it. Thread-local, so
  /// concurrent workers never mix their requests up.
  static void noteQueueNs(uint64_t Ns);
  static uint64_t takeQueueNs();
};

} // namespace serve
} // namespace pdt

#endif // PDT_SERVE_ACCESSLOG_H
