//===- bench/BenchMeta.h - Uniform bench JSON metadata ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every BENCH_*.json carries the same "meta" header so results from
// different machines, build types, and sanitizer configurations are
// never compared apples-to-oranges: build type, sanitizer flags, the
// effective thread count, and a wall-clock timestamp.
//
//===----------------------------------------------------------------------===//

#ifndef PDT_BENCH_BENCHMETA_H
#define PDT_BENCH_BENCHMETA_H

#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/ThreadPool.h"

#include <ctime>
#include <filesystem>
#include <optional>
#include <string>

// Injected by bench/CMakeLists.txt; the fallbacks keep the header
// usable from ad-hoc builds.
#ifndef PDT_BENCH_BUILD_TYPE
#define PDT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PDT_BENCH_SANITIZE
#define PDT_BENCH_SANITIZE 0
#endif

namespace pdt {

/// The uniform "meta" member (no trailing comma or newline); emit as
/// the first member of every bench JSON object:
///   Json << "{\n" << benchMetaJson("x3_graph_throughput") << ",\n" ...
inline std::string benchMetaJson(const char *BenchName) {
  char Time[32] = "unknown";
  std::time_t Now = std::time(nullptr);
  if (std::tm *UTC = std::gmtime(&Now))
    std::strftime(Time, sizeof(Time), "%Y-%m-%dT%H:%M:%SZ", UTC);

  std::string Out;
  Out += "  \"meta\": {\n";
  Out += std::string("    \"bench\": \"") + BenchName + "\",\n";
  Out += "    \"build_type\": \"" PDT_BENCH_BUILD_TYPE "\",\n";
  Out += std::string("    \"sanitizers\": ") +
         (PDT_BENCH_SANITIZE ? "\"address,undefined\"" : "\"none\"") + ",\n";
  Out += "    \"build\": " + buildInfoJson() + ",\n";
  Out += "    \"threads\": " +
         std::to_string(ThreadPool::defaultThreadCount()) + ",\n";
  Out += std::string("    \"timestamp\": \"") + Time + "\"\n";
  Out += "  }";
  return Out;
}

/// Where a bench JSON artifact lands: inside PDT_BENCH_DIR (created
/// on demand) when set, the current directory otherwise. Every bench
/// routes its BENCH_*.json through this so one environment variable
/// collects a whole run's artifacts — ctest working directories,
/// CI output folders, the committed ledger directory.
inline std::string benchOutputPath(const char *FileName) {
  std::optional<std::string> Dir = envPath("PDT_BENCH_DIR");
  if (!Dir)
    return FileName;
  std::error_code EC;
  std::filesystem::create_directories(*Dir, EC);
  // On failure fall through: the ofstream open reports the real error.
  return *Dir + "/" + FileName;
}

} // namespace pdt

#endif // PDT_BENCH_BENCHMETA_H
