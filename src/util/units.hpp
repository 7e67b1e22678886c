// units.hpp — lightweight unit helpers used throughout the Lobster
// reproduction.  Simulation time is a double in *seconds*; data volumes are
// doubles in *bytes*.  These helpers make call sites read like the paper
// ("per-task overhead 20 minutes", "10 Gbit/s campus uplink") instead of
// bare magic numbers.
#pragma once

#include <cstdint>
#include <string>

namespace lobster::util {

// ---- time (seconds) -------------------------------------------------------

constexpr double seconds(double s) { return s; }
constexpr double minutes(double m) { return m * 60.0; }
constexpr double hours(double h) { return h * 3600.0; }
constexpr double days(double d) { return d * 86400.0; }

/// Render a duration in seconds as a compact human-readable string,
/// e.g. "2d3h", "1h04m", "12m30s", "45.2s".
std::string format_duration(double seconds);

// ---- data volume (bytes) --------------------------------------------------

constexpr double bytes(double b) { return b; }
constexpr double kib(double k) { return k * 1024.0; }
constexpr double mib(double m) { return m * 1024.0 * 1024.0; }
constexpr double gib(double g) { return g * 1024.0 * 1024.0 * 1024.0; }
constexpr double tib(double t) { return t * 1024.0 * 1024.0 * 1024.0 * 1024.0; }

// Decimal variants, used where the paper speaks in MB/GB.
constexpr double kb(double k) { return k * 1e3; }
constexpr double mb(double m) { return m * 1e6; }
constexpr double gb(double g) { return g * 1e9; }
constexpr double tb(double t) { return t * 1e12; }

/// Render a byte count as e.g. "3.4 GB", "120 MB", "512 B".
std::string format_bytes(double bytes);

// ---- bandwidth (bytes / second) -------------------------------------------

constexpr double gbit_per_s(double g) { return g * 1e9 / 8.0; }
constexpr double mb_per_s(double m) { return m * 1e6; }

}  // namespace lobster::util
