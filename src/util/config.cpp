#include "util/config.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace lobster::util {

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// The number in front of a size or duration's unit suffix, which goes to
// *suffix.  strtod consumes nothing from "GB" or "h" (they would read as 0)
// and accepts "nan"; both are errors.  "inf" stays legal: time_cap = inf
// means no cap.
double number_before_suffix(const std::string& text, std::string* suffix) {
  const std::string s = trim(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || std::isnan(v))
    throw std::runtime_error("config: no number in '" + text + "'");
  *suffix = lower(trim(end));
  return v;
}

// Strip a trailing comment that is not inside quotes.
std::string strip_comment(const std::string& s) {
  bool quoted = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '"') quoted = !quoted;
    if (!quoted && (s[i] == '#' || s[i] == ';')) return s.substr(0, i);
  }
  return s;
}
}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = trim(strip_comment(line));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::runtime_error("config: unterminated section header at line " +
                                 std::to_string(lineno));
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty())
        throw std::runtime_error("config: empty section name at line " +
                                 std::to_string(lineno));
      // Register the section even if it has no keys.
      cfg.data_[section];
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("config: expected key=value at line " +
                               std::to_string(lineno));
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.empty())
      throw std::runtime_error("config: empty key at line " +
                               std::to_string(lineno));
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"')
      value = value.substr(1, value.size() - 2);
    cfg.data_[section][key] = value;
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  data_[section][key] = value;
}

bool Config::has(const std::string& section, const std::string& key) const {
  const auto s = data_.find(section);
  return s != data_.end() && s->second.count(key) > 0;
}

std::vector<std::string> Config::sections() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [name, _] : data_) out.push_back(name);
  return out;
}

std::vector<std::string> Config::keys(const std::string& section) const {
  std::vector<std::string> out;
  const auto s = data_.find(section);
  if (s == data_.end()) return out;
  for (const auto& [k, _] : s->second) out.push_back(k);
  return out;
}

std::optional<std::string> Config::get(const std::string& section,
                                       const std::string& key) const {
  const auto s = data_.find(section);
  if (s == data_.end()) return std::nullopt;
  const auto k = s->second.find(key);
  if (k == s->second.end()) return std::nullopt;
  return k->second;
}

std::string Config::get_string(const std::string& section,
                               const std::string& key,
                               const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& section, const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  // strtoll would turn "abc" into 0 and "8x" into 8 without complaint —
  // a scenario typo must fail the run, not silently reshape it.
  const auto parsed = parse_int_strict(*v);
  if (!parsed)
    throw std::runtime_error("config: non-numeric value for " + section + "." +
                             key + ": '" + *v + "'");
  return *parsed;
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const auto parsed = parse_double_strict(*v);
  if (!parsed || std::isnan(*parsed))
    throw std::runtime_error("config: non-numeric value for " + section + "." +
                             key + ": '" + *v + "'");
  return *parsed;
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  const auto v = get(section, key);
  if (!v) return fallback;
  const std::string s = lower(trim(*v));
  if (s == "true" || s == "yes" || s == "on" || s == "1") return true;
  if (s == "false" || s == "no" || s == "off" || s == "0") return false;
  return fallback;
}

double Config::parse_duration(const std::string& text) {
  std::string suffix;
  const double v = number_before_suffix(text, &suffix);
  if (suffix.empty() || suffix == "s" || suffix == "sec" || suffix == "seconds")
    return v;
  if (suffix == "m" || suffix == "min" || suffix == "minutes") return v * 60.0;
  if (suffix == "h" || suffix == "hr" || suffix == "hours") return v * 3600.0;
  if (suffix == "d" || suffix == "day" || suffix == "days") return v * 86400.0;
  throw std::runtime_error("config: bad duration suffix in '" + text + "'");
}

double Config::parse_size(const std::string& text) {
  std::string suffix;
  const double v = number_before_suffix(text, &suffix);
  if (suffix.empty() || suffix == "b") return v;
  if (suffix == "kb") return v * 1e3;
  if (suffix == "mb") return v * 1e6;
  if (suffix == "gb") return v * 1e9;
  if (suffix == "tb") return v * 1e12;
  if (suffix == "kib") return v * 1024.0;
  if (suffix == "mib") return v * 1024.0 * 1024.0;
  if (suffix == "gib") return v * 1024.0 * 1024.0 * 1024.0;
  if (suffix == "tib") return v * 1024.0 * 1024.0 * 1024.0 * 1024.0;
  throw std::runtime_error("config: bad size suffix in '" + text + "'");
}

double Config::get_duration(const std::string& section, const std::string& key,
                            double fallback_seconds) const {
  const auto v = get(section, key);
  if (!v) return fallback_seconds;
  return parse_duration(*v);
}

double Config::get_size(const std::string& section, const std::string& key,
                        double fallback_bytes) const {
  const auto v = get(section, key);
  if (!v) return fallback_bytes;
  return parse_size(*v);
}

std::string Config::to_string() const {
  std::ostringstream out;
  for (const auto& [section, kv] : data_) {
    out << '[' << section << "]\n";
    for (const auto& [k, v] : kv) out << k << " = " << v << '\n';
    out << '\n';
  }
  return out.str();
}

}  // namespace lobster::util
