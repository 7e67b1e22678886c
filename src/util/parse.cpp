#include "util/parse.hpp"

#include <cctype>
#include <stdexcept>

namespace lobster::util {

namespace {
std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

std::optional<long long> parse_int_strict(const std::string& text) {
  const std::string t = trimmed(text);
  if (t.empty()) return std::nullopt;
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(t, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != t.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double_strict(const std::string& text) {
  const std::string t = trimmed(text);
  if (t.empty()) return std::nullopt;
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(t, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != t.size()) return std::nullopt;
  return v;
}

}  // namespace lobster::util
