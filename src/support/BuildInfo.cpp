//===- support/BuildInfo.cpp - One build-provenance struct ----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"

// The build passes these through pdt_support's compile definitions;
// standalone compilation gets honest fallbacks.
#ifndef PDT_BUILD_TYPE
#define PDT_BUILD_TYPE "unknown"
#endif
#ifndef PDT_OPT_SANITIZE
#define PDT_OPT_SANITIZE 0
#endif

using namespace pdt;

const BuildInfo &pdt::buildInfo() {
  static const BuildInfo Info = {
      AnalyzerVersion,
      sizeof(PDT_BUILD_TYPE) > 1 ? PDT_BUILD_TYPE : "unknown",
      PDT_OPT_SANITIZE != 0,
  };
  return Info;
}

std::string pdt::buildInfoLine(const char *Tool) {
  const BuildInfo &I = buildInfo();
  std::string Out = Tool;
  Out += ' ';
  Out += I.Version;
  Out += " (build ";
  Out += I.BuildType;
  Out += "; sanitize=";
  Out += I.Sanitize ? "on" : "off";
  Out += ')';
  return Out;
}

std::string pdt::buildInfoJson() {
  const BuildInfo &I = buildInfo();
  std::string Out = "{\"version\": \"";
  Out += I.Version;
  Out += "\", \"build_type\": \"";
  Out += I.BuildType;
  Out += "\", \"sanitize\": ";
  Out += I.Sanitize ? "true" : "false";
  Out += "}";
  return Out;
}
