// parse.hpp — strict whole-token numeric parsing.
//
// std::atoll/strtoll-style parsing turns "abc" into 0 and "8x" into 8
// without complaint; in a campaign driver that silently becomes "run the
// default scenario" instead of "reject the typo" (see parse_campaign_flags
// and the PR 3 misreporting fixes).  Every CLI flag, INI value and spec
// field that expects a number goes through these helpers: the WHOLE trimmed
// token must parse, or the caller gets nullopt / a loud exception.
#pragma once

#include <optional>
#include <string>

namespace lobster::util {

/// Parse the whole token (surrounding whitespace ignored) as a signed
/// integer.  nullopt on empty input, trailing garbage, or overflow.
[[nodiscard]] std::optional<long long> parse_int_strict(
    const std::string& text);

/// Parse the whole token (surrounding whitespace ignored) as a double.
/// nullopt on empty input, trailing garbage, or overflow.
[[nodiscard]] std::optional<double> parse_double_strict(
    const std::string& text);

/// Throwing wrapper: std::invalid_argument naming `what` (a flag or
/// config key) when the token does not parse strictly.
[[nodiscard]] long long require_int(const std::string& text,
                                    const std::string& what);

}  // namespace lobster::util
