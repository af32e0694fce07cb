//===- support/Env.cpp - Hardened environment-variable parsing ------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "support/Failure.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

using namespace pdt;

namespace {

/// One warning on stderr per (variable, value) per process — several
/// knobs are re-read on every analysis — tagged with the MalformedInput
/// taxonomy kind so the message matches what the analysis pipeline
/// would report for the same class of problem.
void warnMalformed(const char *Name, const char *Value, const char *Reason) {
  // Immortal: knobs may be read from static initializers and exit hooks.
  static std::mutex *M = new std::mutex;
  static auto *Warned = new std::set<std::pair<std::string, std::string>>;
  {
    std::lock_guard<std::mutex> Lock(*M);
    if (!Warned->emplace(Name, Value).second)
      return;
  }
  std::fprintf(stderr, "pdt: warning: %s: %s=\"%s\" %s; using the default\n",
               failureKindName(FailureKind::MalformedInput), Name, Value,
               Reason);
}

} // namespace

std::optional<int64_t> pdt::envInt(const char *Name, int64_t Min, int64_t Max) {
  const char *Value = std::getenv(Name);
  if (!Value)
    return std::nullopt;

  errno = 0;
  char *End = nullptr;
  long long Parsed = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0') {
    warnMalformed(Name, Value, "is not a decimal integer");
    return std::nullopt;
  }
  if (errno == ERANGE || Parsed < Min || Parsed > Max) {
    std::string Reason = "is outside [" + std::to_string(Min) + ", " +
                         std::to_string(Max) + "]";
    warnMalformed(Name, Value, Reason.c_str());
    return std::nullopt;
  }
  return static_cast<int64_t>(Parsed);
}

std::optional<std::string>
pdt::envChoice(const char *Name, std::initializer_list<const char *> Choices) {
  const char *Value = std::getenv(Name);
  if (!Value)
    return std::nullopt;
  for (const char *Choice : Choices)
    if (std::string(Value) == Choice)
      return std::string(Choice);
  std::string Reason = "is not one of";
  const char *Sep = " ";
  for (const char *Choice : Choices) {
    Reason += Sep;
    Reason += Choice;
    Sep = "/";
  }
  warnMalformed(Name, Value, Reason.c_str());
  return std::nullopt;
}

std::optional<std::string> pdt::envPath(const char *Name) {
  const char *Value = std::getenv(Name);
  if (!Value)
    return std::nullopt;
  std::string Path(Value);
  if (Path.find_first_not_of(" \t") == std::string::npos) {
    warnMalformed(Name, Value, "is empty");
    return std::nullopt;
  }
  return Path;
}

bool pdt::splitSwitchSpec(const std::string &Spec, bool &On,
                          std::vector<std::string> &Args) {
  std::vector<std::string> Parts;
  for (size_t Pos = 0;;) {
    size_t Comma = Spec.find(',', Pos);
    Parts.push_back(Spec.substr(Pos, Comma - Pos));
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  if (Parts.size() > 3 || (Parts[0] != "on" && Parts[0] != "off") ||
      (Parts[0] == "off" && Parts.size() != 1))
    return false;
  On = Parts[0] == "on";
  Args.assign(Parts.begin() + 1, Parts.end());
  return true;
}
