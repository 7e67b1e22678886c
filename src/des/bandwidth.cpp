#include "des/bandwidth.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace lobster::des {

namespace {
// Flows are considered finished when less than this many bytes remain;
// absorbs floating-point residue from rate * dt integration.
constexpr double kEpsilonBytes = 1e-6;

double completion_eps(double total) {
  // Relative epsilon: large transfers accumulate proportionally larger
  // floating-point residue.
  return std::max(kEpsilonBytes, 1e-12 * total);
}

// Done once the remaining bytes reach the completion epsilon, forgiving a
// few ulps of the key: a busy class's counter can outgrow the epsilon's
// resolution, and an increment below one ulp would not move it at all.
bool finished(double key, double total, double served) {
  return key - served <=
         completion_eps(total) +
             4.0 * std::numeric_limits<double>::epsilon() * std::abs(key);
}
}  // namespace

BandwidthLink::BandwidthLink(Simulation& sim, double capacity_bytes_per_s)
    : sim_(sim), capacity_(capacity_bytes_per_s) {
  // !(>= 0) also rejects NaN, which would stall every flow silently.
  if (!(capacity_ >= 0.0))
    throw std::invalid_argument("BandwidthLink: negative or NaN capacity");
}

void BandwidthLink::set_capacity(double bytes_per_s) {
  if (!(bytes_per_s >= 0.0))
    throw std::invalid_argument("BandwidthLink: negative or NaN capacity");
  // Eager: allocated_rate() <= capacity() must hold the moment this
  // returns, even mid-timestamp, so the change cannot ride a batch.  The
  // flush integrates at the rates solved for the old capacity.
  capacity_ = bytes_per_s;
  flush();
}

double BandwidthLink::bytes_moved() const {
  const double dt = sim_.now() - last_update_;
  double moved = completed_bytes_;
  for (const Class& c : classes_) {
    const double served =
        dt > 0.0 ? c.served + std::min(c.cap, fair_rate_) * dt : c.served;
    for (const Flow& f : heaps_[c.heap])
      moved += f.total - std::max(0.0, f.key - served);
  }
  return moved;
}

std::shared_ptr<Event> BandwidthLink::start_flow(double bytes,
                                                 double rate_cap) {
  if (!(rate_cap > 0.0))
    throw std::invalid_argument("BandwidthLink: rate cap must be positive");
  if (std::isnan(bytes))
    throw std::invalid_argument("BandwidthLink: transfer size is NaN");
  auto done = std::make_shared<Event>(sim_);
  // Integrate up to now at the pre-join rates (completions trigger first);
  // the solve itself waits for the batch flush, so a same-timestamp
  // dispatch burst pays for one.
  if (sim_.now() > last_update_) advance();
  auto c = std::lower_bound(
      classes_.begin(), classes_.end(), rate_cap,
      [](const Class& k, double cap) { return k.cap < cap; });
  if (c == classes_.end() || c->cap != rate_cap) {
    std::uint32_t slot = 0;
    if (free_heaps_.empty()) {
      slot = static_cast<std::uint32_t>(heaps_.size());
      heaps_.emplace_back();
    } else {
      slot = free_heaps_.back();
      free_heaps_.pop_back();
    }
    c = classes_.insert(c, Class{rate_cap, 0.0, slot});
  }
  std::vector<Flow>& heap = heaps_[c->heap];
  const double key = c->served + bytes;
  heap.push_back(Flow{key, next_id_++, bytes, done});
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  ++active_;
  // Except: while every flow is cap-bound and the last solve is current,
  // the first join at a timestamp solves here.  When the joiner fits under
  // the capacity and completes no earlier than the armed timer, the flush
  // would change nothing, so it is skipped; a burst still costs at most
  // this solve and the flush's.
  const double now = sim_.now();
  if (fair_rate_ == kUncapped && armed_at_ != kUncapped && !batch_pending_ &&
      eager_at_ != now && !finished(key, bytes, c->served)) {
    eager_at_ = now;
    solve();
    if (fair_rate_ == kUncapped && next_due() == armed_at_) return done;
  }
  request_batch();
  return done;
}

void BandwidthLink::advance() {
  const double dt = sim_.now() - last_update_;
  last_update_ = sim_.now();
  for (Class& c : classes_) {
    ++stats_.classes_walked;
    if (dt > 0.0) c.served += std::min(c.cap, fair_rate_) * dt;
    std::vector<Flow>& heap = heaps_[c.heap];
    while (!heap.empty() &&
           finished(heap.front().key, heap.front().total, c.served)) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      popped_.push_back(std::move(heap.back()));
      heap.pop_back();
    }
  }
  if (popped_.empty()) return;
  std::erase_if(classes_, [this](const Class& c) {
    if (!heaps_[c.heap].empty()) return false;
    free_heaps_.push_back(c.heap);
    return true;
  });
  active_ -= popped_.size();
  stats_.flows_popped += popped_.size();
  // Same-instant completions trigger in ascending flow id, whatever their
  // class, so event sequence numbers stay deterministic.
  std::sort(popped_.begin(), popped_.end(),
            [](const Flow& a, const Flow& b) { return a.id < b.id; });
  for (Flow& f : popped_) {
    completed_bytes_ += f.total;
    f.done->trigger();
  }
  popped_.clear();
}

void BandwidthLink::solve() {
  ++stats_.solves;
  // Ascending-cap water-fill: a class is cap-bound iff its cap fits under
  // the residual's share among the flows not yet cap-bound.  The share is
  // monotone along the walk, so the first class that does not fit ends
  // it, and a class whose cap fits for its first flow fits for all of
  // them.  Clamping the residual at zero keeps the share non-negative.
  long double capped = 0.0L;
  std::size_t left = active_;
  double fair = kUncapped;
  for (const Class& c : classes_) {
    ++stats_.classes_walked;
    const double residual =
        std::max(0.0, capacity_ - static_cast<double>(capped));
    const double share = residual / static_cast<double>(left);
    if (c.cap > share) {
      fair = share;
      break;
    }
    const std::size_t members = heaps_[c.heap].size();
    capped += static_cast<long double>(c.cap) * members;
    left -= members;
  }
  fair_rate_ = fair;
  allocated_ = static_cast<double>(capped) +
               (left > 0 ? static_cast<double>(left) * fair : 0.0);
}

double BandwidthLink::next_due() {
  // A class's head has the least remaining of its class, and the whole
  // class moves at one rate.
  double min_dt = kUncapped;
  for (const Class& c : classes_) {
    ++stats_.classes_walked;
    const double rate = std::min(c.cap, fair_rate_);
    if (rate > 0.0)
      min_dt = std::min(min_dt, (heaps_[c.heap].front().key - c.served) / rate);
  }
  if (!std::isfinite(min_dt)) return kUncapped;  // link down or no flows
  // Guarantee strict time progress: a delay below one ulp of now() would
  // fire at the same timestamp and make no headway.
  const double now = sim_.now();
  return now + min_dt > now ? now + min_dt : std::nextafter(now, kUncapped);
}

void BandwidthLink::reschedule() {
  const double due = next_due();
  if (due == armed_at_) return;  // the live timer already fires then
  const std::uint64_t gen = ++gen_;
  armed_at_ = due;
  if (due == kUncapped) return;
  ++stats_.timers_armed;
  sim_.schedule_at(due, [this, gen] {
    if (gen != gen_) {
      ++stats_.timers_superseded;  // the completion instant moved since
      return;
    }
    flush();
  });
}

void BandwidthLink::flush() {
  advance();
  batch_pending_ = false;  // this update subsumes any pending batch
  solve();
  reschedule();
}

void BandwidthLink::request_batch() {
  if (batch_pending_) return;
  batch_pending_ = true;
  sim_.schedule(0.0, [this] {
    // An eager path (capacity change, timer) may have flushed the batch
    // already at this timestamp; the flag makes the callback a no-op then.
    if (batch_pending_) flush();
  });
}

}  // namespace lobster::des
