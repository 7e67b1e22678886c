#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lobster::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += o.m2_ + delta * delta * na * nb / total;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string RunningStats::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%llu mean=%.4g sd=%.4g [%.4g, %.4g]",
                static_cast<unsigned long long>(n_), mean(), stddev(), min(),
                max());
  return buf;
}

}  // namespace lobster::util
