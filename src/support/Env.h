//===- support/Env.h - Hardened environment-variable parsing ----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict parsing for the PDT_* environment knobs (PDT_THREADS,
/// PDT_TRACE, PDT_METRICS, ...). A malformed or out-of-range value is
/// never silently coerced into a default: the parser emits one warning
/// per variable and value on stderr, classified with the Failure
/// taxonomy's MalformedInput kind, and then falls back to the
/// documented default.
/// Unset variables are silent — only garbage warns.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_ENV_H
#define PDT_SUPPORT_ENV_H

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace pdt {

/// Reads \p Name as a decimal integer in [\p Min, \p Max]. Returns
/// nullopt when the variable is unset; also nullopt — after warning
/// once on stderr (malformed-input) — when the value is not a number,
/// has trailing characters, or lies outside the range.
std::optional<int64_t> envInt(const char *Name, int64_t Min, int64_t Max);

/// Reads \p Name as a file path. Returns nullopt when unset; an empty
/// or whitespace-only value is rejected with a malformed-input warning
/// (an accidental `PDT_TRACE=` must not truncate a file named "").
std::optional<std::string> envPath(const char *Name);

/// Reads \p Name as one of a closed set of keywords (exact,
/// case-sensitive match). Returns the matched choice when the value is
/// one of \p Choices, nullopt when the variable is unset, and nullopt
/// — after a malformed-input warning listing the allowed values — for
/// anything else.
std::optional<std::string> envChoice(const char *Name,
                                     std::initializer_list<const char *> Choices);

/// Splits an on/off switch spec (PDT_FLIGHT, PDT_WATCHDOG): "off", or
/// "on" followed by at most two comma-separated arguments. Returns
/// false for any other keyword, for arguments after "off" and for more
/// than two arguments; otherwise sets \p On and fills \p Args with the
/// arguments as written (possibly empty), which the caller validates.
bool splitSwitchSpec(const std::string &Spec, bool &On,
                     std::vector<std::string> &Args);

} // namespace pdt

#endif // PDT_SUPPORT_ENV_H
