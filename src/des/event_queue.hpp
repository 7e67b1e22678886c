// event_queue.hpp — ladder-style calendar event queue for the DES core.
//
// The kernel previously ordered events with a binary-heap
// std::priority_queue: O(log n) comparisons per push/pop against a
// million-entry heap, each touching a 40+-byte entry with an embedded
// std::function.  A 110k-core Global Pool run dispatches tens of millions
// of events, most of them coroutine resumptions clustered tightly in time —
// exactly the access pattern a calendar queue serves in amortised O(1).
//
// Structure (nearest first):
//
//   batch_    the run of items sharing the earliest timestamp, in sequence
//             order.  pop() walks it; a push at exactly the batch timestamp
//             appends (sequence numbers are monotone, so order is
//             preserved).  This drains same-timestamp bursts — event
//             triggers, zero-delay resumes — in one pass with no searching.
//   bottom_   the rest of the open bucket, kept sorted: a push that lands
//             in it is placed by binary search instead of marking the
//             bucket for a re-sort.
//   rungs_    a stack of bucket windows.  Rung 0 covers [start, start +
//             count * width); rung k+1 subdivides the one bucket of rung k
//             that is open (the ladder queue's rungs: Tang, Goh & Thng,
//             "Ladder Queue", ACM TOMACS 2005).  Buckets are unsorted; a
//             push lands in bucket floor((t - start) / width) of the
//             deepest rung whose open bucket it does not fall in.
//   top_      everything past rung 0, unsorted.  When the rungs drain,
//             rung 0 is rebuilt over it.
//
// Window rule: a window has a power-of-two bucket count in [64, 65536],
// about half as many buckets as items.  Its length is the items' span,
// unless a far tail (a worker death, the time cap) stretches that span:
// then it is twice the smallest power-of-two distance from the earliest
// item that holds half the items.  Rung 0 leaves items past its window in
// top_; a child rung clamps them into its last bucket.
//
// Split rule: a bucket opened with more than kSplitAt items of at least two
// timestamps is split into a child rung instead of being sorted, at most
// kMaxRungs deep.  A bucket fills in push order, so one already in (time,
// seq) order — a single timestamp, or times pushed in order — skips the
// sort.  Below the rung cap the runs that get sorted stay short, so a pop
// costs O(log n) comparisons.  Two cases fall outside that bound: a bucket
// opened at the cap (clusters nested kMaxRungs deep) is sorted whole, and
// a push into the open bucket is a sorted insert that moves every later
// item in it — the open bucket has no size limit, so a burst of b such
// pushes moves O(b^2) items.
//
// Memory rule: a bucket keeps at most kKeepItems of capacity once emptied,
// and rebuilding rung 0 frees the buckets of deeper rungs, so the storage
// retained between rebuilds is bounded by a small multiple of the peak
// number of pending items.
//
// Determinism: the queue realises the exact total order (time, seq) with
// seq assigned in push order — the same contract the heap implemented — so
// every golden-metrics file and trace replay stays bit-identical.  A push
// earlier than a batch that next_time() already peeked (a schedule after
// run_until) returns the batch to the bottom first, so it too pops in
// (time, seq) order.
//
// Item payloads are 32 bytes: the common case (resume a coroutine) is an
// inline handle; raw callbacks live in an internal free-listed slab of
// std::function so sorting moves small PODs, not type-erased closures.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace lobster::des {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  static constexpr std::uint32_t kNoFn = 0xFFFFFFFFu;

  struct Item {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> handle{};  ///< non-null: resume this
    std::uint32_t fn = kNoFn;          ///< else: index into the fn slab
  };

  /// Host-cost counters.  They count work rather than time, so tests can
  /// pin the queue's complexity deterministically.
  struct Stats {
    std::uint64_t sorts = 0;           ///< buckets sorted when opened
    std::uint64_t sorts_skipped = 0;   ///< opened buckets already in order
    std::uint64_t items_compared = 0;  ///< (time, seq) comparisons
    std::uint64_t rebuilds = 0;        ///< rung-0 windows built from top_
    std::uint64_t splits = 0;          ///< child rungs spawned
    std::size_t retained_items = 0;    ///< item capacity held right now
  };

  /// Enqueue a raw callback at absolute time `t` (>= the last popped time).
  void push_fn(double t, Callback fn);
  /// Enqueue a coroutine resumption at absolute time `t` (the hot path — no
  /// allocation, no type erasure).
  void push_resume(double t, std::coroutine_handle<> h);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending item; +infinity when empty.  May
  /// open a bucket / rebuild the window (amortised against the pops that
  /// must follow).
  double next_time();

  /// Remove and return the earliest item by (time, seq).  Returns false
  /// when the queue is empty.  For fn items the caller runs take_fn().
  bool pop_next(Item& out);

  /// Move callback `idx` out of the slab and recycle the slot.  Call before
  /// invoking, so the callback may freely push new events.
  Callback take_fn(std::uint32_t idx);

  [[nodiscard]] Stats stats() const;

 private:
  static constexpr std::size_t kSplitAt = 64;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kKeepItems = 64;

  struct Rung {
    double start = 0.0;
    double inv_width = 1.0;  ///< 1 / bucket width
    std::size_t base = 0;    ///< first bucket in buckets_
    std::size_t count = 0;   ///< buckets in this rung
    std::size_t clamp = 0;   ///< largest slot: count (rung 0), count - 1
    std::size_t next = 0;    ///< buckets before this are opened or drained
  };

  /// Bucket of `t` in `r`, clamped to [0, r.clamp]; monotone in t.
  static std::size_t slot(double t, const Rung& r) {
    const double q = (t - r.start) * r.inv_width;
    if (!(q > 0.0)) return 0;
    return q < static_cast<double>(r.clamp) ? static_cast<std::size_t>(q)
                                            : r.clamp;
  }

  void insert(const Item& item);
  void insert_bottom(const Item& item);
  /// Make batch_ hold the next same-timestamp run; false when empty.
  bool ensure_batch();
  /// Refill bottom_ from the next non-empty bucket; false when empty.
  bool open_next_bucket();
  /// Build a rung over `src`: rung 0 when no rung exists (items past its
  /// window stay in `src`), else a child of the deepest rung's open bucket
  /// (`src` is emptied).
  void spawn_rung(std::vector<Item>& src);
  /// Sort a freshly opened bottom_ by (time, seq).
  void sort_bottom();

  // Tier 0: active same-timestamp batch.
  std::vector<Item> batch_;
  std::size_t batch_pos_ = 0;
  double batch_time_ = 0.0;
  bool batch_active_ = false;

  // Tier 1: the sorted remainder of the deepest rung's open bucket.
  std::vector<Item> bottom_;
  std::size_t bottom_pos_ = 0;

  // Tier 2: bucket rungs; rung k owns buckets_[base, base + count).
  std::array<Rung, kMaxRungs> rungs_{};
  std::size_t depth_ = 0;
  std::vector<std::vector<Item>> buckets_;

  // Tier 3: items beyond rung 0.
  std::vector<Item> top_;

  // Callback slab: push_fn stores here, take_fn recycles.
  std::vector<Callback> fn_slab_;
  std::vector<std::uint32_t> fn_free_;

  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
  /// The counters stats() reports; it measures retained_items itself.
  struct Counters {
    std::uint64_t sorts = 0;
    std::uint64_t sorts_skipped = 0;
    std::uint64_t items_compared = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t splits = 0;
  };
  Counters stats_;
};

}  // namespace lobster::des
