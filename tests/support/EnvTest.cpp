//===- tests/support/EnvTest.cpp - Hardened env parsing tests -------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The PDT_* environment knobs must never silently coerce garbage:
// malformed values warn (malformed-input taxonomy) and fall back to
// the documented default; unset variables stay silent.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "support/FlightRecorder.h"
#include "support/Trace.h"
#include "support/Watchdog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

using namespace pdt;

namespace {

/// Scoped environment variable: restores the prior state on exit so
/// tests cannot leak settings into each other.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Old = std::getenv(Name);
    if (Old)
      Saved = Old;
    if (Value)
      ::setenv(Name, Value, 1);
    else
      ::unsetenv(Name);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

const char *Var = "PDT_ENVTEST_VALUE";

} // namespace

TEST(Env, UnsetIsSilentNullopt) {
  ScopedEnv E(Var, nullptr);
  EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  EXPECT_EQ(envPath(Var), std::nullopt);
}

TEST(Env, ParsesWellFormedInteger) {
  ScopedEnv E(Var, "8");
  EXPECT_EQ(envInt(Var, 1, 100), 8);
}

TEST(Env, AcceptsRangeEndpoints) {
  {
    ScopedEnv E(Var, "1");
    EXPECT_EQ(envInt(Var, 1, 100), 1);
  }
  {
    ScopedEnv E(Var, "100");
    EXPECT_EQ(envInt(Var, 1, 100), 100);
  }
}

TEST(Env, RejectsNonNumeric) {
  ScopedEnv E(Var, "abc");
  EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
}

TEST(Env, RejectsTrailingGarbage) {
  ScopedEnv E(Var, "8threads");
  EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
}

TEST(Env, RejectsOutOfRange) {
  {
    ScopedEnv E(Var, "0");
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  }
  {
    ScopedEnv E(Var, "101");
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  }
  {
    ScopedEnv E(Var, "999999999999999999999999");
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  }
}

TEST(Env, RejectsEmptyOrWhitespacePath) {
  {
    ScopedEnv E(Var, "");
    EXPECT_EQ(envPath(Var), std::nullopt);
  }
  {
    ScopedEnv E(Var, "   \t ");
    EXPECT_EQ(envPath(Var), std::nullopt);
  }
}

TEST(Env, AcceptsRealPath) {
  ScopedEnv E(Var, "out/trace.json");
  EXPECT_EQ(envPath(Var), "out/trace.json");
}

TEST(Env, ChoiceUnsetIsSilentNullopt) {
  ScopedEnv E(Var, nullptr);
  EXPECT_EQ(envChoice(Var, {"on", "off", "auto"}), std::nullopt);
}

TEST(Env, ChoiceAcceptsEachListedValue) {
  for (const char *Value : {"on", "off", "auto"}) {
    ScopedEnv E(Var, Value);
    EXPECT_EQ(envChoice(Var, {"on", "off", "auto"}), std::string(Value));
  }
}

TEST(Env, ChoiceRejectsUnlistedValue) {
  ScopedEnv E(Var, "sometimes");
  EXPECT_EQ(envChoice(Var, {"on", "off", "auto"}), std::nullopt);
}

TEST(Env, ChoiceIsCaseSensitiveAndExact) {
  {
    ScopedEnv E(Var, "ON");
    EXPECT_EQ(envChoice(Var, {"on", "off", "auto"}), std::nullopt);
  }
  {
    ScopedEnv E(Var, " on");
    EXPECT_EQ(envChoice(Var, {"on", "off", "auto"}), std::nullopt);
  }
}

TEST(Env, WarnsOncePerVariableAndValue) {
  // PDT_THREADS, PDT_BATCH and PDT_STORE are re-read on every analysis;
  // a bad value must not warn on each read.
  testing::internal::CaptureStderr();
  {
    ScopedEnv E(Var, "warn-once-probe");
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  }
  std::string Once = testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(Once.begin(), Once.end(), '\n'), 1) << Once;

  testing::internal::CaptureStderr();
  {
    ScopedEnv E(Var, "warn-once-probe-2");
    EXPECT_EQ(envInt(Var, 1, 100), std::nullopt);
  }
  std::string Other = testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(Other.begin(), Other.end(), '\n'), 1)
      << "a different bad value warns again: " << Other;
}

//===----------------------------------------------------------------------===//
// The monitor knobs: PDT_FLIGHT and PDT_WATCHDOG carry structured
// specs with their own parsers (exposed as parseSpec for exactly these
// tests); PDT_TRACE_MAX_SPANS / PDT_SAMPLE_MS are ranged envInt reads;
// PDT_SAMPLE / PDT_EVENTS are envPath reads. Same taxonomy throughout:
// malformed input never silently coerces.
//===----------------------------------------------------------------------===//

namespace {

/// Runs FlightRecorder::parseSpec with sentinel outputs so tests can
/// tell "accepted and set" from "accepted and defaulted" apart.
struct FlightSpec {
  bool Accepted;
  bool On = false;
  size_t Bytes = 0;
  std::string Path;
  explicit FlightSpec(const char *Spec) {
    Accepted = pdt::FlightRecorder::parseSpec(Spec, On, Bytes, Path);
  }
};

struct WatchdogSpec {
  bool Accepted;
  bool On = false;
  double Factor = 0;
  uint64_t QuietMs = 0;
  explicit WatchdogSpec(const char *Spec) {
    Accepted = pdt::Watchdog::parseSpec(Spec, On, Factor, QuietMs);
  }
};

} // namespace

TEST(EnvFlightSpec, AcceptsOnAndOff) {
  {
    FlightSpec S("on");
    EXPECT_TRUE(S.Accepted);
    EXPECT_TRUE(S.On);
    EXPECT_EQ(S.Bytes, 0u) << "bare 'on' must not touch the byte cap";
  }
  {
    FlightSpec S("off");
    EXPECT_TRUE(S.Accepted);
    EXPECT_FALSE(S.On);
  }
}

TEST(EnvFlightSpec, AcceptsByteCapWithSuffixes) {
  {
    FlightSpec S("on,4096");
    EXPECT_TRUE(S.Accepted);
    EXPECT_EQ(S.Bytes, 4096u);
  }
  {
    FlightSpec S("on,64k");
    EXPECT_TRUE(S.Accepted);
    EXPECT_EQ(S.Bytes, 64u * 1024);
  }
  {
    FlightSpec S("on,2M");
    EXPECT_TRUE(S.Accepted);
    EXPECT_EQ(S.Bytes, 2u * 1024 * 1024);
  }
}

TEST(EnvFlightSpec, AcceptsDumpPath) {
  FlightSpec S("on,64k,out/flight.json");
  EXPECT_TRUE(S.Accepted);
  EXPECT_TRUE(S.On);
  EXPECT_EQ(S.Path, "out/flight.json");
}

TEST(EnvFlightSpec, RejectsMalformedSpecs) {
  for (const char *Bad :
       {"", "ON", "On", " on", "on,", "on,,", "on,abc", "on,64kb", "on,-1",
        "on,0",               // Below one TraceEvent slot.
        "on,2g",              // Unknown suffix.
        "on,64k,",            // Empty path component.
        "on,64k,a,b",         // Too many components.
        "off,64k",            // off takes no arguments.
        "auto"}) {
    FlightSpec S(Bad);
    EXPECT_FALSE(S.Accepted) << "accepted malformed spec: '" << Bad << "'";
  }
}

TEST(EnvFlightSpec, EnforcesTheByteCapRange) {
  EXPECT_FALSE(FlightSpec("on,1").Accepted) << "below one TraceEvent slot";
  EXPECT_TRUE(FlightSpec("on,1m").Accepted);
  EXPECT_FALSE(FlightSpec("on,1025m").Accepted) << "above 1 GiB per thread";
}

TEST(EnvWatchdogSpec, AcceptsOnOffFactorAndQuiet) {
  {
    WatchdogSpec S("on");
    EXPECT_TRUE(S.Accepted);
    EXPECT_TRUE(S.On);
    EXPECT_EQ(S.Factor, 0.0) << "bare 'on' must not touch the factor";
  }
  {
    WatchdogSpec S("off");
    EXPECT_TRUE(S.Accepted);
    EXPECT_FALSE(S.On);
  }
  {
    WatchdogSpec S("on,2.5");
    EXPECT_TRUE(S.Accepted);
    EXPECT_EQ(S.Factor, 2.5);
  }
  {
    WatchdogSpec S("on,2,500");
    EXPECT_TRUE(S.Accepted);
    EXPECT_EQ(S.Factor, 2.0);
    EXPECT_EQ(S.QuietMs, 500u);
  }
}

TEST(EnvWatchdogSpec, RejectsMalformedSpecs) {
  for (const char *Bad :
       {"", "ON", "on,", "on,abc", "on,0.5",   // Factor below 1.
        "on,1001",                             // Factor above 1000.
        "on,2,",                               // Empty quiet component.
        "on,2,0",                              // Zero quiet interval.
        "on,2,12.5",                           // Quiet must be integral.
        "on,2,1000000000",                     // Quiet > 9 digits.
        "on,2,500,x",                          // Too many components.
        "off,2"}) {
    WatchdogSpec S(Bad);
    EXPECT_FALSE(S.Accepted) << "accepted malformed spec: '" << Bad << "'";
  }
}

TEST(EnvMonitorKnobs, TraceMaxSpansUsesTheDocumentedRange) {
  // PDT_TRACE_MAX_SPANS reads envInt(1024, 1 << 28) — below/above fall
  // back to the default cap with a warning, like every other knob.
  {
    ScopedEnv E(Var, "1024");
    EXPECT_EQ(envInt(Var, 1024, int64_t(1) << 28), 1024);
  }
  {
    ScopedEnv E(Var, "1023");
    EXPECT_EQ(envInt(Var, 1024, int64_t(1) << 28), std::nullopt);
  }
  {
    ScopedEnv E(Var, "268435457"); // (1 << 28) + 1.
    EXPECT_EQ(envInt(Var, 1024, int64_t(1) << 28), std::nullopt);
  }
}

TEST(EnvMonitorKnobs, SampleIntervalUsesTheDocumentedRange) {
  // PDT_SAMPLE_MS reads envInt(1, 3600000): sub-millisecond sampling
  // and intervals above an hour are both rejected.
  {
    ScopedEnv E(Var, "250");
    EXPECT_EQ(envInt(Var, 1, 3600000), 250);
  }
  {
    ScopedEnv E(Var, "0");
    EXPECT_EQ(envInt(Var, 1, 3600000), std::nullopt);
  }
  {
    ScopedEnv E(Var, "3600001");
    EXPECT_EQ(envInt(Var, 1, 3600000), std::nullopt);
  }
}

TEST(EnvMonitorKnobs, JournalAndTimeseriesPathsAreEnvPaths) {
  // PDT_EVENTS / PDT_SAMPLE read envPath: whitespace-only rejected,
  // real relative paths pass through untouched.
  {
    ScopedEnv E(Var, "runs/journal.jsonl");
    EXPECT_EQ(envPath(Var), "runs/journal.jsonl");
  }
  {
    ScopedEnv E(Var, " ");
    EXPECT_EQ(envPath(Var), std::nullopt);
  }
}
