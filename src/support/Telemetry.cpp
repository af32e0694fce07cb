//===- support/Telemetry.cpp - Arming, JSONL streams, cadence -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/BuildInfo.h"
#include "support/CrashSafety.h"
#include "support/Env.h"
#include "support/EventLog.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Profile.h"
#include "support/Sampler.h"
#include "support/Trace.h"
#include "support/Watchdog.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fcntl.h>
#include <fstream>
#include <unistd.h>

using namespace pdt;

namespace {

/// Where PDT_PROFILE writes. Immortal: read by the exit and crash
/// writers.
const std::string *ProfilePath = nullptr;

void writeProfile() {
  std::ofstream File(*ProfilePath);
  if (!File) {
    std::fprintf(stderr, "pdt: warning: cannot write PDT_PROFILE file %s\n",
                 ProfilePath->c_str());
    return;
  }
  File << Profile::fromTrace().toJson();
}

void warnMalformedSpec(const char *Name, const char *Value,
                       const char *Expected, const char *Sink) {
  std::fprintf(stderr,
               "pdt: warning: malformed %s value '%s' (expected %s or off); "
               "%s stays disarmed\n",
               Name, Value, Expected, Sink);
}

} // namespace

void pdt::armTelemetryFromEnvironment() {
  // The cap applies to any armed full trace (PDT_TRACE here or a
  // programmatic start), so it is read before the arming decision.
  if (std::optional<int64_t> Cap =
          envInt("PDT_TRACE_MAX_SPANS", 1024, int64_t(1) << 28))
    Trace::setMaxSpansPerThread(static_cast<uint32_t>(*Cap));
  if (std::optional<std::string> Path = envPath("PDT_TRACE")) {
    Trace::start(std::move(*Path));
    std::atexit([] { Trace::stop(); });
    // An aborting run skips atexit; the crash-flush registry covers
    // std::terminate and SIGABRT so the trace survives those too.
    registerCrashFlush("PDT_TRACE", [] {
      if (Trace::enabled())
        Trace::stop();
    });
  }

  if (std::optional<std::string> Path = envPath("PDT_PROFILE")) {
    ProfilePath = new std::string(std::move(*Path));
    if (!Trace::enabled())
      Trace::start("");
    std::atexit(writeProfile);
    registerCrashFlush("PDT_PROFILE", writeProfile);
  }

  if (std::optional<std::string> Path = envPath("PDT_METRICS")) {
    Metrics::enable(std::move(*Path));
    std::atexit([] { Metrics::stop(); });
    registerCrashFlush("PDT_METRICS", [] {
      if (Metrics::enabled())
        Metrics::stop();
    });
  }

  // The journal needs no flush hook: every line reaches the kernel
  // before EventLog::event returns.
  if (std::optional<std::string> Path = envPath("PDT_EVENTS"))
    if (!EventLog::start(*Path))
      std::fprintf(stderr, "pdt: warning: cannot open PDT_EVENTS file %s\n",
                   Path->c_str());

  if (const char *Spec = std::getenv("PDT_FLIGHT"); Spec && *Spec) {
    bool On = false;
    size_t Bytes = FlightRecorder::DefaultBytesPerThread;
    std::string DumpPath;
    if (!FlightRecorder::parseSpec(Spec, On, Bytes, DumpPath)) {
      warnMalformedSpec("PDT_FLIGHT", Spec, "on[,bytes[,path]]",
                        "flight recorder");
    } else if (On) {
      FlightRecorder::start(Bytes, std::move(DumpPath));
      // A crashing run is exactly when the black box matters: dump the
      // surviving window before the process dies.
      registerCrashFlush("PDT_FLIGHT", [] {
        if (FlightRecorder::enabled())
          FlightRecorder::postmortem("crash");
      });
    }
  }

  if (const char *Spec = std::getenv("PDT_WATCHDOG"); Spec && *Spec) {
    bool On = false;
    double Factor = Watchdog::DefaultStallFactor;
    uint64_t QuietMs = Watchdog::DefaultQuietMs;
    if (!Watchdog::parseSpec(Spec, On, Factor, QuietMs)) {
      warnMalformedSpec("PDT_WATCHDOG", Spec, "on[,factor[,quiet_ms]]",
                        "watchdog");
    } else if (On) {
      Watchdog::start(Factor, QuietMs);
      // The monitor thread must not outlive main's static teardown.
      std::atexit([] { Watchdog::stop(); });
    }
  }

  std::optional<int64_t> SampleMs = envInt("PDT_SAMPLE_MS", 1, 3600000);
  std::optional<std::string> SamplePath = envPath("PDT_SAMPLE");
  if (SampleMs || SamplePath) {
    std::string Path = SamplePath.value_or("");
    if (!Sampler::start(SampleMs ? static_cast<uint64_t>(*SampleMs)
                                 : Sampler::DefaultIntervalMs,
                        Path))
      std::fprintf(stderr, "pdt: warning: cannot open PDT_SAMPLE file %s\n",
                   Path.c_str());
    // Normal exits take the final sample and close the stream; crashes
    // keep every line already written.
    std::atexit([] { Sampler::stop(); });
  }
}

bool JsonlStream::open(const std::string &Path, std::string_view Header) {
  close();
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (Fd < 0)
    return false;
  writeLine(Header);
  return true;
}

void JsonlStream::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

void JsonlStream::writeLine(std::string_view Line) {
  if (Fd < 0)
    return;
  Buffer.assign(Line);
  Buffer += '\n';
  for (size_t Done = 0; Done < Buffer.size();) {
    ssize_t N = ::write(Fd, Buffer.data() + Done, Buffer.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return;
    Done += static_cast<size_t>(N);
  }
}

std::string JsonlStream::header(const char *Schema) {
  char Time[32] = "unknown";
  std::time_t Now = std::time(nullptr);
  std::tm UTC{};
  if (gmtime_r(&Now, &UTC))
    std::strftime(Time, sizeof(Time), "%Y-%m-%dT%H:%M:%SZ", &UTC);
  std::string Out = "{\"schema\": \"";
  Out += Schema;
  Out += "\", \"build\": ";
  Out += buildInfoJson();
  Out += ", \"start\": \"";
  Out += Time;
  Out += "\"}";
  return Out;
}

void PeriodicThread::start(uint64_t PeriodMs, void (*Tick)()) {
  stop();
  if (!PeriodMs)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Stopping = false;
  Thread = std::thread([this, PeriodMs, Tick] {
    std::unique_lock<std::mutex> Lock(M);
    while (!Wake.wait_for(Lock, std::chrono::milliseconds(PeriodMs),
                          [this] { return Stopping; })) {
      Lock.unlock();
      Tick();
      Lock.lock();
    }
  });
}

void PeriodicThread::stop() {
  std::thread Running;
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
    Running = std::move(Thread);
  }
  Wake.notify_all();
  if (Running.joinable())
    Running.join();
}
