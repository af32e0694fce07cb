//===- serve/AccessLog.cpp - Per-request pdt-access-v1 JSONL --------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/AccessLog.h"

#include "support/Env.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace pdt;
using namespace pdt::serve;

namespace {

struct AccessState {
  std::mutex M;
  // Outside the mutex so the disarmed append() is one relaxed load.
  std::atomic<bool> Enabled{false};
  JsonlStream Stream;
  uint64_t Lines = 0;
  std::chrono::steady_clock::time_point Epoch;
};

AccessState &state() {
  // Immortal, like the journal: a crash hook may want the last line
  // written after static destruction began.
  static AccessState *S = new AccessState;
  return *S;
}

thread_local uint64_t PendingQueueNs = 0;

} // namespace

bool AccessLog::enabled() {
  return state().Enabled.load(std::memory_order_relaxed);
}

bool AccessLog::start(const std::string &Path) {
  AccessState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Enabled.store(false, std::memory_order_relaxed);
  S.Lines = 0;
  S.Epoch = std::chrono::steady_clock::now();
  if (!S.Stream.open(Path, JsonlStream::header("pdt-access-v1")))
    return false;
  S.Enabled.store(true, std::memory_order_relaxed);
  return true;
}

void AccessLog::stop() {
  AccessState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Enabled.store(false, std::memory_order_relaxed);
  S.Stream.close();
}

void AccessLog::append(const AccessRecord &R) {
  AccessState &S = state();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return;
  // Format outside the lock. IDs are pre-validated [A-Za-z0-9._-] and
  // routes are rebuilt from the parsed method + path, so the escape
  // (and its allocation) is a cold fallback — but the log must stay
  // valid JSON for any input.
  auto NeedsEscape = [](const std::string &S) {
    for (unsigned char C : S)
      if (C < 0x20 || C == '"' || C == '\\')
        return true;
    return false;
  };
  std::string IdEsc, RouteEsc;
  const char *Id = R.Id.c_str();
  if (NeedsEscape(R.Id)) {
    IdEsc = json::escape(R.Id);
    Id = IdEsc.c_str();
  }
  const char *Route = R.Route.c_str();
  if (NeedsEscape(R.Route)) {
    RouteEsc = json::escape(R.Route);
    Route = RouteEsc.c_str();
  }
  uint64_t NowMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - S.Epoch)
          .count());
  // Hand-rolled emitter: snprintf's format parsing is the single
  // biggest cost of an append, and this runs once per served request.
  // An escaped route can in principle outgrow the buffer; truncating
  // would corrupt the JSONL stream, so overflow falls back to a short
  // identity-only line under a sentinel route instead.
  char Buf[1024];
  char *P = Buf;
  const char *Cap = Buf + sizeof(Buf);
  bool Overflow = false;
  auto Raw = [&](const char *D, size_t L) {
    if (static_cast<size_t>(Cap - P) < L) {
      Overflow = true;
      return;
    }
    std::memcpy(P, D, L);
    P += L;
  };
  auto Str = [&](const char *D) { Raw(D, std::strlen(D)); };
  auto U64 = [&](uint64_t V) {
    char T[20];
    std::to_chars_result CR = std::to_chars(T, T + sizeof(T), V);
    Raw(T, static_cast<size_t>(CR.ptr - T));
  };
  auto Field = [&](const char *Key, size_t KeyLen, uint64_t V) {
    Raw(Key, KeyLen); // Key carries its own quotes, colon, and comma
    U64(V);
  };
#define PDT_LIT(S) S, sizeof(S) - 1
  Raw(PDT_LIT("{\"t_ms\": "));
  U64(NowMs);
  Raw(PDT_LIT(", \"id\": \""));
  Str(Id);
  Raw(PDT_LIT("\", \"route\": \""));
  Str(Route);
  Raw(PDT_LIT("\""));
  Field(PDT_LIT(", \"status\": "), static_cast<uint64_t>(R.Status));
  Field(PDT_LIT(", \"bytes_in\": "), R.BytesIn);
  Field(PDT_LIT(", \"bytes_out\": "), R.BytesOut);
  Field(PDT_LIT(", \"wall_ns\": "), R.WallNs);
  Field(PDT_LIT(", \"queue_ns\": "), R.QueueNs);
  Field(PDT_LIT(", \"analyze_ns\": "), R.AnalyzeNs);
  Field(PDT_LIT(", \"analyses\": "), R.Analyses);
  Field(PDT_LIT(", \"stats\": {\"reference_pairs\": "), R.ReferencePairs);
  Field(PDT_LIT(", \"proven_independent\": "), R.IndependentPairs);
  Field(PDT_LIT(", \"degraded\": "), R.DegradedResults);
  Field(PDT_LIT("}, \"routing\": {\"batched_ziv\": "), R.BatchedZIV);
  Field(PDT_LIT(", \"batched_strong_siv\": "), R.BatchedStrongSIV);
  Field(PDT_LIT(", \"scalar_fallback\": "), R.ScalarFallback);
  Field(PDT_LIT(", \"store_hits\": "), R.StoreHits);
  Field(PDT_LIT(", \"store_misses\": "), R.StoreMisses);
  Raw(PDT_LIT("}}"));
  if (Overflow) {
    P = Buf;
    Overflow = false;
    Raw(PDT_LIT("{\"t_ms\": "));
    U64(NowMs);
    Raw(PDT_LIT(", \"id\": \""));
    Str(Id); // IDs are capped at 64 chars by validId/mint; only the
             // route can overflow, and it is dropped here
    Raw(PDT_LIT("\", \"route\": \"-overlong-\""));
    Field(PDT_LIT(", \"status\": "), static_cast<uint64_t>(R.Status));
    Raw(PDT_LIT("}"));
    if (Overflow)
      return;
  }
#undef PDT_LIT
  size_t Len = static_cast<size_t>(P - Buf);
  std::lock_guard<std::mutex> Lock(S.M);
  if (!S.Stream.isOpen())
    return;
  S.Stream.writeLine({Buf, Len});
  ++S.Lines;
}

uint64_t AccessLog::linesWritten() {
  AccessState &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Lines;
}

void AccessLog::noteQueueNs(uint64_t Ns) { PendingQueueNs = Ns; }

uint64_t AccessLog::takeQueueNs() {
  uint64_t Ns = PendingQueueNs;
  PendingQueueNs = 0;
  return Ns;
}

namespace {
/// Arms PDT_ACCESS_LOG before main. This TU is linked into anything
/// that uses Service or Server (they call append()), so the
/// initializer runs in every serving binary.
[[maybe_unused]] const bool AccessLogArmed = [] {
  if (std::optional<std::string> Path = envPath("PDT_ACCESS_LOG"))
    if (!AccessLog::start(*Path))
      std::fprintf(stderr,
                   "pdt: warning: cannot open PDT_ACCESS_LOG file %s\n",
                   Path->c_str());
  return true;
}();
} // namespace
