#include "des/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace lobster::des {

namespace {

/// floor(log2 x) for a positive finite double, read from its exponent bits.
int exponent_of(double x) {
  return static_cast<int>((std::bit_cast<std::uint64_t>(x) >> 52) & 0x7FF) -
         1023;
}

/// Window length for items starting at `t_min` and spanning `span`: the
/// span, unless half the items sit within a quarter of it — then twice the
/// smallest power-of-two distance from t_min that holds that half.  One
/// pass of exponent arithmetic, no sorting, so a far tail cannot stretch
/// the buckets.
double window_length(const std::vector<EventQueue::Item>& items, double t_min,
                     double span) {
  if (!(span > 0.0) || !std::isfinite(span)) return span;
  const int top = exponent_of(span);
  // hist[b]: items whose distance from t_min has exponent top - b; the last
  // bin also takes every smaller distance, zero included.
  std::array<std::size_t, 64> hist{};
  for (const EventQueue::Item& it : items) {
    const double d = it.time - t_min;
    const int b = d > 0.0 ? std::clamp(top - exponent_of(d), 0, 63) : 63;
    ++hist[static_cast<std::size_t>(b)];
  }
  const std::size_t half = (items.size() + 1) / 2;
  std::size_t held = 0;
  for (int b = 63; b > 1; --b) {
    held += hist[static_cast<std::size_t>(b)];
    if (held >= half) return std::ldexp(1.0, top - b + 2);
  }
  return span;
}

}  // namespace

void EventQueue::push_fn(double t, Callback fn) {
  std::uint32_t idx;
  if (!fn_free_.empty()) {
    idx = fn_free_.back();
    fn_free_.pop_back();
    fn_slab_[idx] = std::move(fn);
  } else {
    idx = static_cast<std::uint32_t>(fn_slab_.size());
    fn_slab_.push_back(std::move(fn));
  }
  Item it;
  it.time = t;
  it.seq = seq_++;
  it.fn = idx;
  insert(it);
  ++size_;
}

void EventQueue::push_resume(double t, std::coroutine_handle<> h) {
  Item it;
  it.time = t;
  it.seq = seq_++;
  it.handle = h;
  insert(it);
  ++size_;
}

EventQueue::Callback EventQueue::take_fn(std::uint32_t idx) {
  assert(idx < fn_slab_.size());
  Callback fn = std::move(fn_slab_[idx]);
  fn_slab_[idx] = nullptr;
  fn_free_.push_back(idx);
  return fn;
}

void EventQueue::insert(const Item& item) {
  if (batch_active_) {
    // Same-timestamp pushes while a batch drains join the batch directly:
    // seq is monotone, so appending preserves the sorted (time, seq) order.
    // This is the zero-delay resume fast path (event triggers, queue wakes).
    if (item.time == batch_time_) {
      batch_.push_back(item);
      return;
    }
    // Earlier than a batch next_time() peeked but nobody popped: the batch
    // goes back in front of the bottom, which the item then precedes.
    if (item.time < batch_time_ && batch_pos_ < batch_.size()) {
      const auto pos = static_cast<std::ptrdiff_t>(bottom_pos_);
      const auto rest = static_cast<std::ptrdiff_t>(batch_pos_);
      bottom_.insert(bottom_.begin() + pos, batch_.begin() + rest,
                     batch_.end());
      batch_.clear();
      batch_pos_ = 0;
      batch_active_ = false;
    }
  }
  // Every rung's open bucket contains the next rung, so walk down while
  // the item falls in (or before) the open one.
  for (std::size_t k = 0; k < depth_; ++k) {
    const Rung& r = rungs_[k];
    const std::size_t idx = slot(item.time, r);
    if (idx < r.next) continue;
    if (idx == r.count)
      top_.push_back(item);  // past rung 0's window
    else
      buckets_[r.base + idx].push_back(item);
    return;
  }
  if (depth_ == 0)
    top_.push_back(item);
  else
    insert_bottom(item);
}

void EventQueue::insert_bottom(const Item& item) {
  // The item carries the largest seq so far, so it goes after every item
  // whose time is <= its own.
  ++stats_.items_compared;
  if (bottom_pos_ == bottom_.size() || !(item.time < bottom_.back().time)) {
    bottom_.push_back(item);
  } else {
    std::uint64_t compared = 0;
    const auto at = std::upper_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom_.end(), item.time, [&compared](double t, const Item& x) {
          ++compared;
          return t < x.time;
        });
    stats_.items_compared += compared;
    bottom_.insert(at, item);
  }
}

bool EventQueue::ensure_batch() {
  if (batch_pos_ < batch_.size()) return true;
  batch_.clear();
  batch_pos_ = 0;
  batch_active_ = false;
  if (bottom_pos_ == bottom_.size()) {
    bottom_.clear();
    bottom_pos_ = 0;
    if (!open_next_bucket()) return false;
  }
  batch_time_ = bottom_[bottom_pos_].time;
  do {
    batch_.push_back(bottom_[bottom_pos_++]);
  } while (bottom_pos_ < bottom_.size() &&
           bottom_[bottom_pos_].time == batch_time_);
  batch_active_ = true;
  return true;
}

bool EventQueue::open_next_bucket() {
  assert(bottom_.empty() && bottom_pos_ == 0);
  for (;;) {
    if (depth_ == 0) {
      if (top_.empty()) return false;
      spawn_rung(top_);
    }
    Rung& r = rungs_[depth_ - 1];
    while (r.next < r.count && buckets_[r.base + r.next].empty()) ++r.next;
    if (r.next == r.count) {  // drained: so is its parent's open bucket
      --depth_;
      continue;
    }
    std::vector<Item>& b = buckets_[r.base + r.next++];
    const double t0 = b.front().time;
    if (b.size() > kSplitAt && depth_ < kMaxRungs &&
        std::any_of(b.begin(), b.end(),
                    [t0](const Item& it) { return it.time != t0; })) {
      std::vector<Item> items;
      items.swap(b);
      spawn_rung(items);
      continue;
    }
    bottom_.swap(b);
    // b now holds the old bottom's storage; keep only a bucket's allowance.
    if (b.capacity() > kKeepItems) std::vector<Item>().swap(b);
    sort_bottom();
    return true;
  }
}

void EventQueue::spawn_rung(std::vector<Item>& src) {
  assert(!src.empty() && depth_ < kMaxRungs);
  double t_min = src.front().time;
  double t_max = t_min;
  for (const Item& it : src) {
    t_min = std::min(t_min, it.time);
    t_max = std::max(t_max, it.time);
  }
  // About two items per bucket, power-of-two bucket counts in [64, 65536].
  std::size_t nb = 64;
  while (nb < src.size() / 2 && nb < 65536) nb <<= 1;
  const double length = window_length(src, t_min, t_max - t_min);
  const double width = length > 0.0 ? length / static_cast<double>(nb) : 1.0;
  const bool child = depth_ > 0;
  Rung& r = rungs_[depth_];
  r.start = t_min;
  r.inv_width = 1.0 / width;
  r.base = child ? rungs_[depth_ - 1].base + rungs_[depth_ - 1].count : 0;
  r.count = nb;
  r.clamp = child ? nb - 1 : nb;
  r.next = 0;
  if (child) {
    ++stats_.splits;
    if (buckets_.size() < r.base + nb) buckets_.resize(r.base + nb);
  } else {
    ++stats_.rebuilds;
    buckets_.resize(nb);  // frees the buckets deeper rungs left behind
  }
  ++depth_;
  std::size_t kept = 0;
  for (const Item& it : src) {
    const std::size_t idx = slot(it.time, r);
    if (idx == r.count)
      src[kept++] = it;  // rung 0 only: wait in top_ for the next window
    else
      buckets_[r.base + idx].push_back(it);
  }
  src.resize(kept);
}

void EventQueue::sort_bottom() {
  std::uint64_t compared = 0;
  const auto before = [&compared](const Item& a, const Item& b) {
    ++compared;
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  // A bucket fills in push (seq) order, so one whose items share a
  // timestamp or were pushed in time order is already sorted; the check
  // stops at the first inversion otherwise.
  if (!std::is_sorted(bottom_.begin(), bottom_.end(), before)) {
    std::sort(bottom_.begin(), bottom_.end(), before);
    ++stats_.sorts;
  } else {
    ++stats_.sorts_skipped;
  }
  stats_.items_compared += compared;
}

double EventQueue::next_time() {
  if (!ensure_batch()) return std::numeric_limits<double>::infinity();
  return batch_[batch_pos_].time;
}

bool EventQueue::pop_next(Item& out) {
  if (!ensure_batch()) return false;
  out = batch_[batch_pos_++];
  --size_;
  return true;
}

EventQueue::Stats EventQueue::stats() const {
  Stats s;
  s.sorts = stats_.sorts;
  s.sorts_skipped = stats_.sorts_skipped;
  s.items_compared = stats_.items_compared;
  s.rebuilds = stats_.rebuilds;
  s.splits = stats_.splits;
  s.retained_items = batch_.capacity() + bottom_.capacity() + top_.capacity();
  for (const std::vector<Item>& b : buckets_) s.retained_items += b.capacity();
  return s;
}

}  // namespace lobster::des
