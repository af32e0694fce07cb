//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include "support/EventLog.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

using namespace pdt;

namespace {

// Armed says whether the arithmetic injector is armed; the inline
// checkpoint() gate is FaultInjector::SlowPath. Counter and Target
// only matter while armed; Kind is written before Armed is released
// and read after it is acquired.
std::atomic<bool> Armed{false};
std::atomic<uint64_t> Counter{0};
std::atomic<uint64_t> Target{0};
std::atomic<FailureKind> Kind{FailureKind::Overflow};

// The I/O injector mirrors the arithmetic one but counts sites per
// kind and reports trips by return value instead of raising.
std::atomic<bool> IoArmed{false};
std::atomic<uint64_t> IoCounter{0};
std::atomic<uint64_t> IoTarget{0};
std::atomic<IoFaultKind> IoKind{IoFaultKind::Open};

// One-time PDT_FAULT_INJECT pickup, shared by checkpoint() and
// armed() so routing decisions made before the first checkpoint
// (e.g. the batched-vs-scalar gate) already see an env-armed
// injector.
std::once_flag EnvOnce;
std::atomic<bool> EnvRead{false};

std::optional<FailureKind> parseKind(const std::string &Name) {
  if (Name == "overflow")
    return FailureKind::Overflow;
  if (Name == "budget")
    return FailureKind::BudgetExhausted;
  if (Name == "symbolic")
    return FailureKind::SymbolicUnknown;
  if (Name == "internal")
    return FailureKind::InternalInvariant;
  if (Name == "malformed")
    return FailureKind::MalformedInput;
  return std::nullopt;
}

std::optional<IoFaultKind> parseIoKind(const std::string &Name) {
  if (Name == "io_open")
    return IoFaultKind::Open;
  if (Name == "io_write")
    return IoFaultKind::Write;
  if (Name == "io_fsync")
    return IoFaultKind::Fsync;
  if (Name == "io_torn_tail")
    return IoFaultKind::TornTail;
  return std::nullopt;
}

} // namespace

std::atomic<bool> FaultInjector::SlowPath{true};

void FaultInjector::readEnvironmentOnce() {
  std::call_once(EnvOnce, [] {
    initFromEnvironment();
    EnvRead.store(true, std::memory_order_relaxed);
    SlowPath.store(Armed.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  });
}

const char *pdt::ioFaultKindName(IoFaultKind K) {
  switch (K) {
  case IoFaultKind::Open:
    return "io_open";
  case IoFaultKind::Write:
    return "io_write";
  case IoFaultKind::Fsync:
    return "io_fsync";
  case IoFaultKind::TornTail:
    return "io_torn_tail";
  }
  return "io_unknown";
}

void FaultInjector::arm(FailureKind K, uint64_t TargetSite) {
  Kind.store(K, std::memory_order_relaxed);
  Target.store(TargetSite, std::memory_order_relaxed);
  Counter.store(0, std::memory_order_relaxed);
  Armed.store(true, std::memory_order_release);
  SlowPath.store(true, std::memory_order_relaxed);
}

bool FaultInjector::armFromSpec(const std::string &Spec) {
  std::string::size_type At = Spec.find('@');
  if (At == std::string::npos || At == 0 || At + 1 >= Spec.size())
    return false;
  const std::string KindStr = Spec.substr(0, At);
  const std::string SiteStr = Spec.substr(At + 1);
  char *End = nullptr;
  unsigned long long Site = std::strtoull(SiteStr.c_str(), &End, 10);
  if (End == SiteStr.c_str() || *End != '\0')
    return false;
  if (std::optional<IoFaultKind> IoK = parseIoKind(KindStr)) {
    armIo(*IoK, Site);
    return true;
  }
  std::optional<FailureKind> K = parseKind(KindStr);
  if (!K)
    return false;
  arm(*K, Site);
  return true;
}

void FaultInjector::armIo(IoFaultKind K, uint64_t TargetSite) {
  IoKind.store(K, std::memory_order_relaxed);
  IoTarget.store(TargetSite, std::memory_order_relaxed);
  IoCounter.store(0, std::memory_order_relaxed);
  IoArmed.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  Armed.store(false, std::memory_order_release);
  // Until the environment is read, the first checkpoint must still
  // take the slow path to read it.
  SlowPath.store(!EnvRead.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  Counter.store(0, std::memory_order_relaxed);
  IoArmed.store(false, std::memory_order_release);
  IoCounter.store(0, std::memory_order_relaxed);
}

uint64_t FaultInjector::siteCount() {
  return Counter.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::ioSiteCount() {
  return IoCounter.load(std::memory_order_relaxed);
}

bool FaultInjector::armed() {
  readEnvironmentOnce();
  return Armed.load(std::memory_order_relaxed);
}

bool FaultInjector::ioArmed() {
  readEnvironmentOnce();
  return IoArmed.load(std::memory_order_relaxed);
}

void FaultInjector::initFromEnvironment() {
  if (const char *Env = std::getenv("PDT_FAULT_INJECT"))
    armFromSpec(Env);
}

void FaultInjector::checkpointSlow() {
  readEnvironmentOnce();
  if (!Armed.load(std::memory_order_acquire))
    return;
  uint64_t Site = Counter.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t T = Target.load(std::memory_order_relaxed);
  if (T != 0 && Site == T) {
    // Journal before raising: the trip is deliberate sabotage and the
    // journal is how a post-run reader tells it from a real failure.
    if (EventLog::enabled())
      EventLog::event(EventSeverity::Info, "faults", "injected-trip",
                      failureKindName(Kind.load(std::memory_order_relaxed)),
                      {{"site", Site}});
    raiseFailure(Kind.load(std::memory_order_relaxed),
                 "injected fault (PDT_FAULT_INJECT)");
  }
}

bool FaultInjector::ioCheckpoint(IoFaultKind K) {
  readEnvironmentOnce();
  if (!IoArmed.load(std::memory_order_acquire))
    return false;
  if (IoKind.load(std::memory_order_relaxed) != K)
    return false;
  uint64_t Site = IoCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t T = IoTarget.load(std::memory_order_relaxed);
  bool Trip = T != 0 && Site == T;
  if (Trip && EventLog::enabled())
    EventLog::event(EventSeverity::Info, "faults", "injected-io-trip",
                    ioFaultKindName(K), {{"site", Site}});
  return Trip;
}
