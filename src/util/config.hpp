// config.hpp — a small INI-style configuration parser.  Lobster is driven by
// a user-supplied configuration file describing input datasets, task sizing,
// merge mode etc.; this parser supports the subset we need:
//
//   [section]
//   key = value            # trailing comments with '#' or ';'
//   list = a, b, c
//
// Values are stored as strings and converted on access; durations accept
// suffixes s/m/h/d and sizes accept suffixes kB/MB/GB/KiB/MiB/GiB.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lobster::util {

class Config {
 public:
  Config() = default;

  /// Parse from text; throws std::runtime_error with line info on syntax
  /// errors.
  static Config parse(const std::string& text);
  /// Parse from a file on disk.
  static Config load(const std::string& path);

  void set(const std::string& section, const std::string& key,
           const std::string& value);

  bool has(const std::string& section, const std::string& key) const;
  std::vector<std::string> sections() const;
  std::vector<std::string> keys(const std::string& section) const;

  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& section, const std::string& key,
                       std::int64_t fallback = 0) const;
  double get_double(const std::string& section, const std::string& key,
                    double fallback = 0.0) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback = false) const;
  /// Duration in seconds; accepts plain numbers (seconds) or suffixes
  /// "s", "m", "h", "d" (e.g. "20m", "1.5h").
  double get_duration(const std::string& section, const std::string& key,
                      double fallback_seconds = 0.0) const;
  /// Size in bytes; accepts suffixes kB/MB/GB/TB (decimal) and
  /// KiB/MiB/GiB/TiB (binary), case-insensitive.
  double get_size(const std::string& section, const std::string& key,
                  double fallback_bytes = 0.0) const;

  /// Serialise back to INI text (sections and keys sorted).
  std::string to_string() const;

  /// Parse helpers exposed for tests.
  static double parse_duration(const std::string& text);
  static double parse_size(const std::string& text);

 private:
  std::map<std::string, std::map<std::string, std::string>> data_;
};

}  // namespace lobster::util
