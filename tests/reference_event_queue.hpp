// reference_event_queue.hpp — the deliberately simple event-queue oracle.
//
// A binary min-heap on (time, seq) built from std::push_heap/pop_heap, with
// seq assigned in push order: the contract des::EventQueue's ladder of
// bucket windows must realise exactly.  event_queue_diff_test drives both
// in lockstep over thousands of seeded schedules and demands the same pop
// order and the same next_time() answers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace lobster::testref {

class ReferenceEventQueue {
 public:
  struct Item {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t tag = 0;  ///< caller's payload
  };

  void push(double t, std::uint64_t tag) {
    heap_.push_back(Item{t, seq_++, tag});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double next_time() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().time;
  }
  bool pop(Item& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out = heap_.back();
    heap_.pop_back();
    return true;
  }

 private:
  static bool later(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Item> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace lobster::testref
