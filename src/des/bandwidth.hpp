// bandwidth.hpp — fluid-flow shared link with max-min fair bandwidth
// allocation.
//
// This models the paper's contended network paths: the 10 Gbit/s campus
// uplink that the 10k-core data processing run saturates (Section 6), the
// squid proxy uplinks, and the Chirp server NIC.  Concurrent transfers share
// the link capacity max-min fairly; each flow can additionally be capped
// (e.g. a worker NIC limit).  Rates are recomputed whenever a flow joins,
// finishes, or the link capacity changes (outage injection sets capacity to
// zero, stalling all flows — exactly the "transient outage of the wide-area
// data handling system" visible in Figure 10).
//
//   des::BandwidthLink wan(sim, util::gbit_per_s(10));
//   co_await wan.transfer(util::gb(2.1));            // completes when done
//
// Incremental solver contract (per-cap-class virtual time):
//
//   * A max-min allocation is one number, the fair share F: every flow's
//     rate is min(cap, F).  Flows with equal caps therefore always move at
//     the same rate, so each distinct cap is a *class* with one cumulative
//     service counter S (Parekh–Gallager virtual time).  A flow is stored
//     once, in its class's min-heap on its finish key S_join + bytes; its
//     remaining bytes are key − S.  Nothing per flow is touched while it
//     runs.
//   * Per link event: advance() adds min(cap, F)·dt to each class counter
//     and pops finished heads; solve() walks the classes in ascending cap
//     (residual/(n−k) with class counts — if a class's cap fits under the
//     running share, the whole class fits); the next timer is the minimum
//     over class heads.  That is O(classes + log n) per event: O(log n) on
//     every production link, which use one cap each.
//   * Same-timestamp joins coalesce into one zero-delay flush, so a dispatch
//     burst of N transfers triggers one solve, not N.  Capacity changes and
//     timer completions flush eagerly (allocated_rate() <= capacity() holds
//     the moment set_capacity returns).  Completions due at one instant
//     trigger in ascending flow id; a joiner at or below its completion
//     epsilon completes at its own timestamp's flush.
//   * A kernel event is scheduled only when the next completion instant
//     moves: a re-solve that lands on the armed instant bit for bit keeps
//     the armed timer.  While every flow is cap-bound, the first join at a
//     timestamp solves at once, and when the fair share and the instant
//     come out unchanged it skips the flush too — so a burst still costs at
//     most two solves (that one and the flush's).
//   * Precision rule: a class counter grows over its busy period, so it is
//     reset (the class dropped) whenever the class empties, and the
//     completion test forgives a few ulps of the finish key — a counter too
//     large to register a sub-ulp increment can never leave a link spinning
//     on timers that make no progress.  Rounding therefore differs from the
//     naive per-flow oracle in tests/reference_link.hpp; bandwidth_diff_test
//     holds the two to a documented relative tolerance.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "des/simulation.hpp"

namespace lobster::des {

class BandwidthLink {
 public:
  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  /// Host-cost counters.  They count work rather than time, so tests can
  /// pin the link's complexity deterministically.
  struct Stats {
    std::uint64_t solves = 0;             ///< fair-share re-solves
    std::uint64_t classes_walked = 0;     ///< class visits by every pass
    std::uint64_t flows_popped = 0;       ///< completions popped from heaps
    std::uint64_t timers_armed = 0;       ///< completion timers scheduled
    std::uint64_t timers_superseded = 0;  ///< timers that fired as no-ops
  };

  BandwidthLink(Simulation& sim, double capacity_bytes_per_s);
  BandwidthLink(const BandwidthLink&) = delete;
  BandwidthLink& operator=(const BandwidthLink&) = delete;

  /// Change capacity at runtime; 0 stalls all flows (outage).
  void set_capacity(double bytes_per_s);
  double capacity() const { return capacity_; }

  std::size_t active_flows() const { return active_; }
  /// Total bytes moved across the link up to sim.now() (completed + partial
  /// flows).  A pure read: it integrates without touching link state, so a
  /// measurement never schedules events.  O(flows).
  [[nodiscard]] double bytes_moved() const;
  /// Instantaneous allocated rate summed over flows (<= capacity), as of the
  /// last solve.  O(1).
  double allocated_rate() const { return allocated_; }
  /// Current fair share F: every flow's rate is min(cap, F).  kUncapped
  /// when every flow is cap-bound (or no flows); 0 while the link is down.
  [[nodiscard]] double fair_rate() const { return fair_rate_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Visit every active flow in ascending flow-id order, with remaining
  /// bytes as of the link's last event.  For the property/differential
  /// tests (O(n log n)): fn(id, total, remaining, cap, rate).
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    struct Row {
      std::uint64_t id;
      double total, remaining, cap, rate;
    };
    std::vector<Row> rows;
    rows.reserve(active_);
    for (const Class& c : classes_)
      for (const Flow& f : heaps_[c.heap])
        rows.push_back({f.id, f.total, std::max(0.0, f.key - c.served), c.cap,
                        std::min(c.cap, fair_rate_)});
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.id < b.id; });
    for (const Row& r : rows) fn(r.id, r.total, r.remaining, r.cap, r.rate);
  }

  struct TransferAwaiter {
    BandwidthLink* link;
    double bytes;
    double rate_cap;
    std::shared_ptr<Event> done;
    bool await_ready() {
      if (bytes <= 0.0) return true;
      done = link->start_flow(bytes, rate_cap);
      return done->triggered();
    }
    void await_suspend(std::coroutine_handle<> h) { done->add_waiter(h); }
    void await_resume() const noexcept {}
  };

  /// Awaitable transfer of `bytes` with optional per-flow rate cap.
  TransferAwaiter transfer(double bytes, double rate_cap = kUncapped) {
    return TransferAwaiter{this, bytes, rate_cap, nullptr};
  }

  /// Advanced: start a flow and return its completion event without
  /// awaiting.  Multi-hop paths (site uplink feeding a shared WAN trunk)
  /// use this to occupy several links simultaneously and then wait for the
  /// slowest hop.  Throws std::invalid_argument on a NaN size or a
  /// non-positive cap.
  std::shared_ptr<Event> start_flow(double bytes, double rate_cap);

 private:
  /// One flow, stored only in its class's heap.
  struct Flow {
    double key = 0.0;  ///< class counter value at which the flow is done
    std::uint64_t id = 0;
    double total = 0.0;
    std::shared_ptr<Event> done;
    /// Heap order: with std::greater<>, the earliest (key, id) on top.
    bool operator>(const Flow& o) const {
      return key != o.key ? key > o.key : id > o.id;
    }
  };
  /// All flows sharing one cap: they always move at min(cap, F).
  struct Class {
    double cap = 0.0;
    double served = 0.0;     ///< bytes served to each member this busy period
    std::uint32_t heap = 0;  ///< slot in heaps_
  };

  /// Integrate every class counter to now() at the current rates, then pop
  /// and trigger (ascending id) every flow that finished.  Classes that
  /// empty are dropped, which restarts their counter at zero.
  void advance();
  /// Ascending-cap water-fill over the classes: sets fair_rate_/allocated_.
  void solve();
  /// When the earliest class head completes at the current rates (strictly
  /// after now()); kUncapped when the link is down or idle.
  [[nodiscard]] double next_due();
  /// Keep the armed timer when next_due() is bit-identical to its instant;
  /// otherwise arm one there (a stale timer is cancelled via gen_).
  void reschedule();
  /// advance + solve + reschedule; subsumes any pending batch.
  void flush();
  /// Coalesce same-timestamp joins: the first join at a timestamp
  /// schedules one zero-delay flush; further joins ride along for free.
  void request_batch();

  Simulation& sim_;
  double capacity_;
  double last_update_ = 0.0;
  double completed_bytes_ = 0.0;
  double fair_rate_ = kUncapped;
  double allocated_ = 0.0;
  std::size_t active_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t gen_ = 0;
  double armed_at_ = kUncapped;   ///< the live timer's instant; none: kUncapped
  double eager_at_ = -kUncapped;  ///< timestamp of the last join-time solve
  bool batch_pending_ = false;
  Stats stats_;
  // Non-empty classes in ascending cap order.  A class is trivially
  // copyable, so inserting one moves 24-byte records; its flows live in a
  // heap slot that outlives the class and is reused by the next one.
  std::vector<Class> classes_;
  std::vector<std::vector<Flow>> heaps_;
  std::vector<std::uint32_t> free_heaps_;
  std::vector<Flow> popped_;  // advance() scratch
};

}  // namespace lobster::des
