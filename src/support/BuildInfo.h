//===- support/BuildInfo.h - One build-provenance struct --------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for "what binary is this": the analyzer
/// generation string, the CMake build type, and whether the build runs
/// under a sanitizer (PDT_SANITIZE). Every surface
/// that stamps provenance — the CLI `--version` lines, the
/// event-journal header, the time-series header, `BenchMeta`, the
/// analyzer options fingerprint — renders from this one struct so they
/// can never drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_BUILDINFO_H
#define PDT_SUPPORT_BUILDINFO_H

#include <string>

namespace pdt {

/// The analyzer generation. Bumped when analysis semantics change in a
/// way that must invalidate persisted results; the result store's
/// generation fingerprint starts with this string.
inline constexpr const char *AnalyzerVersion = "pdt-analyzer-v7";

/// Compile-time provenance of this binary.
struct BuildInfo {
  const char *Version;         ///< AnalyzerVersion.
  const char *BuildType;       ///< CMAKE_BUILD_TYPE ("unknown" without CMake).
  bool Sanitize;               ///< Built under a sanitizer preset.
};

/// The (constant) build info of this binary.
const BuildInfo &buildInfo();

/// One human-facing line for `--version`:
///   "depcheck pdt-analyzer-v7 (build Release; sanitize=off)"
std::string buildInfoLine(const char *Tool);

/// The same facts as a JSON object (no trailing newline), embedded in
/// the event-journal header, the time-series header, and BenchMeta.
std::string buildInfoJson();

} // namespace pdt

#endif // PDT_SUPPORT_BUILDINFO_H
