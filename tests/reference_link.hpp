// reference_link.hpp — the deliberately naive max-min water-filling oracle.
//
// ReferenceLink is a drop-in BandwidthLink with none of the incremental
// machinery: every join/finish/capacity change re-sorts the full flow set,
// re-runs the water-fill from scratch (O(n) per event, O(n^2) per flow
// lifetime), stores an explicit per-flow rate and remaining byte count,
// sweeps completions on every advance, and never batches same-timestamp
// updates.  That makes it slow and obviously correct — the property the
// differential battery leans on: bandwidth_diff_test fuzzes thousands of
// schedules through both links and requires completion times, completion
// order, remaining bytes and rates to agree within a documented relative
// tolerance, and bench/micro_net uses it as the "full-recompute baseline"
// the incremental solver must beat by >= 10x at 100k concurrent flows.
//
// The allocation rule is the link's — walk caps in ascending order, a flow
// is cap-bound while its cap fits under the residual's share, the residual
// is clamped at zero, rate = min(cap, fair) — and so is the completion
// rule: a flow finishes once its remaining bytes fall to max(1e-6,
// 1e-12 * size), and a joiner already at or below that completes at its
// own join timestamp.  The arithmetic differs on purpose: the link sums
// whole cap classes and integrates one service counter per class, the
// oracle sums flow by flow (Kahan-compensated long double) and subtracts
// rate * dt from every flow, so the two agree to rounding, not bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "des/simulation.hpp"

namespace lobster::testref {

class ReferenceLink {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  ReferenceLink(des::Simulation& sim, double capacity_bytes_per_s)
      : sim_(sim), capacity_(capacity_bytes_per_s) {
    if (capacity_ < 0.0)
      throw std::invalid_argument("ReferenceLink: negative capacity");
  }
  ReferenceLink(const ReferenceLink&) = delete;
  ReferenceLink& operator=(const ReferenceLink&) = delete;

  void set_capacity(double bytes_per_s) {
    if (bytes_per_s < 0.0)
      throw std::invalid_argument("ReferenceLink: negative capacity");
    advance();
    capacity_ = bytes_per_s;
    recompute();
    reschedule();
  }
  double capacity() const { return capacity_; }

  std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] double bytes_moved() const {
    double partial = 0.0;
    for (const Flow& f : flows_) partial += f.total - f.remaining;
    return completed_bytes_ + partial;
  }
  double allocated_rate() const {
    double sum = 0.0;
    for (const Flow& f : flows_) sum += f.rate;
    return sum;
  }

  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (const Flow& f : flows_) fn(f.id, f.total, f.remaining, f.cap, f.rate);
  }

  struct TransferAwaiter {
    ReferenceLink* link;
    double bytes;
    double rate_cap;
    std::shared_ptr<des::Event> done;
    bool await_ready() noexcept {
      if (bytes <= 0.0) return true;
      done = link->start_flow(bytes, rate_cap);
      return done->triggered();
    }
    void await_suspend(std::coroutine_handle<> h) { done->add_waiter(h); }
    void await_resume() const noexcept {}
  };

  TransferAwaiter transfer(double bytes, double rate_cap = kUncapped) {
    return TransferAwaiter{this, bytes, rate_cap, nullptr};
  }

  /// Bench-setup helper: append a flow *without* the per-join recompute, so
  /// bench/micro_net can build a 100k-flow steady state in O(n) instead of
  /// O(n^2 log n).  Call settle() once after the last preload.  The
  /// differential tests never use this — every fuzzed join goes through
  /// start_flow's naive full recompute.
  void preload(double bytes, double rate_cap) {
    Flow f;
    f.id = next_id_++;
    f.total = bytes;
    f.remaining = bytes;
    f.cap = rate_cap;
    f.done = std::make_shared<des::Event>(sim_);
    flows_.push_back(std::move(f));
  }
  void settle() {
    recompute();
    reschedule();
  }

 private:
  friend struct TransferAwaiter;
  struct Flow {
    std::uint64_t id = 0;
    double total = 0.0;
    double remaining = 0.0;
    double cap = 0.0;
    double rate = 0.0;
    std::shared_ptr<des::Event> done;
  };

  static double completion_eps(double total) {
    return std::max(1e-6, 1e-12 * total);
  }

  std::shared_ptr<des::Event> start_flow(double bytes, double rate_cap) {
    if (rate_cap <= 0.0)
      throw std::invalid_argument("ReferenceLink: rate cap must be positive");
    auto done = std::make_shared<des::Event>(sim_);
    advance();
    const std::uint64_t id = next_id_++;
    if (bytes <= completion_eps(bytes)) {
      // A joiner at or below its completion epsilon completes at its own
      // timestamp.
      completed_bytes_ += bytes;
      done->trigger();
    } else {
      Flow f;
      f.id = id;
      f.total = bytes;
      f.remaining = bytes;
      f.cap = rate_cap;
      f.done = done;
      flows_.push_back(std::move(f));
    }
    recompute();  // naive: every join pays the full water-fill immediately
    reschedule();
    return done;
  }

  void advance() {
    const double now = sim_.now();
    const double dt = now - last_update_;
    last_update_ = now;
    // Naive: sweep on every call, even zero-width ones.
    std::size_t out = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      Flow& f = flows_[i];
      if (dt > 0.0) f.remaining = std::max(0.0, f.remaining - f.rate * dt);
      if (f.remaining <= completion_eps(f.total)) {
        completed_bytes_ += f.total;
        f.done->trigger();
      } else {
        if (out != i) flows_[out] = std::move(f);
        ++out;
      }
    }
    flows_.resize(out);
  }

  // Textbook water-fill, from scratch: sort every flow by (cap, id), scan
  // ascending with a Kahan long-double prefix sum, stop at the first cap
  // the running fair share of the residual cannot cover, give everyone
  // min(cap, fair).  The link walks the same order one cap class at a time.
  void recompute() {
    scratch_.clear();
    for (std::size_t i = 0; i < flows_.size(); ++i) scratch_.push_back(i);
    std::sort(scratch_.begin(), scratch_.end(),
              [this](std::size_t a, std::size_t b) {
                return flows_[a].cap != flows_[b].cap
                           ? flows_[a].cap < flows_[b].cap
                           : flows_[a].id < flows_[b].id;
              });
    const std::size_t n = flows_.size();
    long double sum = 0.0L;
    long double comp = 0.0L;
    std::size_t k = 0;
    double fair = kUncapped;
    while (k < n) {
      const double residual =
          std::max(0.0, capacity_ - static_cast<double>(sum));
      const double share = residual / static_cast<double>(n - k);
      if (flows_[scratch_[k]].cap > share) {
        fair = share;
        break;
      }
      const long double y =
          static_cast<long double>(flows_[scratch_[k]].cap) - comp;
      const long double t = sum + y;
      comp = (t - sum) - y;
      sum = t;
      ++k;
    }
    for (Flow& f : flows_) f.rate = std::min(f.cap, fair);
  }

  void reschedule() {
    const std::uint64_t gen = ++gen_;
    double min_dt = std::numeric_limits<double>::infinity();
    for (const Flow& f : flows_)
      if (f.rate > 0.0) min_dt = std::min(min_dt, f.remaining / f.rate);
    if (!std::isfinite(min_dt)) return;
    const double now = sim_.now();
    if (now + min_dt <= now)
      min_dt = std::nextafter(now, std::numeric_limits<double>::infinity()) -
               now;
    sim_.schedule(min_dt, [this, gen] { on_timer(gen); });
  }

  void on_timer(std::uint64_t gen) {
    if (gen != gen_) return;
    advance();
    recompute();
    reschedule();
  }

  des::Simulation& sim_;
  double capacity_;
  double last_update_ = 0.0;
  double completed_bytes_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::uint64_t gen_ = 0;
  std::vector<Flow> flows_;
  std::vector<std::size_t> scratch_;
};

}  // namespace lobster::testref
