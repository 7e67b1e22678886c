// parse.hpp — strict whole-token numeric parsing.
//
// std::atoll/strtoll-style parsing turns "abc" into 0 and "8x" into 8
// without complaint; in a campaign driver that silently becomes "run the
// default scenario" instead of "reject the typo".  Every CLI flag (through
// util::Args), INI value, spec field and DB journal number goes through
// these helpers: the WHOLE trimmed token must parse, or the caller gets
// nullopt and reports it.
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

}  // namespace lobster::util
