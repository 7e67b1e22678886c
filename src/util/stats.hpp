// stats.hpp — streaming statistics accumulators (Welford mean/variance,
// min/max) used by the monitoring subsystem and the benches.
#pragma once

#include <cstdint>
#include <string>

namespace lobster::util {

/// Streaming mean / variance / extrema via Welford's algorithm.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  [[nodiscard]] std::string summary() const;  ///< "n=... mean=... sd=... [min, max]"

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lobster::util
