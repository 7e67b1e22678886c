// Differential battery and cost pins for des::EventQueue.
//
// The ladder queue (bucket rungs, split buckets, a sorted bottom and a
// same-timestamp batch) must pop in exactly the (time, seq) order of
// tests/reference_event_queue.hpp, a plain binary heap.  A seeded schedule
// fuzzer drives both in lockstep through pushes (coroutine resumes and
// callbacks), pops, next_time() peeks and run_until-style advances, and
// demands bit-identical pop times, the same payloads and the same peeks.
// Schedules mix far-future outliers (time caps, worker deaths), dense
// near-term pushes into the bucket being drained, same-timestamp storms,
// zero-delay pushes mid-batch, times on exact binary bucket boundaries and
// geometrically clustered times that force nested rungs.
//
// On mismatch the failing schedule is greedily shrunk (drop one op at a
// time while the failure persists) and printed as a replayable C++ literal;
// paste it into the Replay test below to debug.  LOBSTER_DIFF_SCHEDULES
// raises (or lowers) the number of fuzzed schedules.
//
// The cost pins count work instead of timing it: on an Engine-shaped
// schedule, comparisons per pop stay within c * log2(n), grow sublinearly
// from n to 10n pending items, and the storage the queue retains stays
// within a small multiple of the peak number of pending items.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "des/event_queue.hpp"
#include "reference_event_queue.hpp"
#include "util/rng.hpp"

namespace lobster {
namespace {

using des::EventQueue;

enum class OpKind { Push, PushFn, Pop, Peek, RunUntil };

struct Op {
  OpKind kind = OpKind::Pop;
  /// Push/PushFn/RunUntil: the delay past now, or with `absolute` the
  /// target time (clamped to now, so dropping ops never makes time run
  /// backwards).
  double value = 0.0;
  bool absolute = false;
};

struct Schedule {
  std::vector<Op> ops;
};

/// Payloads ride in fake coroutine handles; they are compared, never
/// resumed.
std::coroutine_handle<> handle_for(std::uint64_t tag) {
  return std::coroutine_handle<>::from_address(
      reinterpret_cast<void*>(static_cast<std::uintptr_t>((tag + 1) << 4)));
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Run `s` through both queues; "" when they agree, else the first
/// difference.
std::string compare_run(const Schedule& s, EventQueue::Stats* stats = nullptr) {
  EventQueue q;
  testref::ReferenceEventQueue ref;
  double now = 0.0;
  std::uint64_t next_tag = 0;
  std::uint64_t fired = 0;  // set by callback payloads

  // Pops one item from both; "" when they agree.
  auto pop_both = [&](std::size_t at) -> std::string {
    testref::ReferenceEventQueue::Item want;
    EventQueue::Item got;
    const bool has_want = ref.pop(want);
    if (q.pop_next(got) != has_want)
      return "op " + std::to_string(at) + ": pop emptiness differs";
    if (!has_want) return "";
    std::uint64_t tag;
    if (got.handle) {
      tag = (reinterpret_cast<std::uintptr_t>(got.handle.address()) >> 4) - 1;
    } else {
      q.take_fn(got.fn)();
      tag = fired;
    }
    if (std::bit_cast<std::uint64_t>(got.time) !=
            std::bit_cast<std::uint64_t>(want.time) ||
        tag != want.tag)
      return "op " + std::to_string(at) + ": popped (" + fmt(got.time) +
             ", #" + std::to_string(tag) + "), oracle (" + fmt(want.time) +
             ", #" + std::to_string(want.tag) + ")";
    now = got.time;
    return "";
  };

  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const Op& op = s.ops[i];
    const double t =
        op.absolute ? std::max(now, op.value) : now + op.value;
    std::string why;
    switch (op.kind) {
      case OpKind::Push:
        q.push_resume(t, handle_for(next_tag));
        ref.push(t, next_tag++);
        break;
      case OpKind::PushFn: {
        const std::uint64_t tag = next_tag++;
        q.push_fn(t, [&fired, tag] { fired = tag; });
        ref.push(t, tag);
        break;
      }
      case OpKind::Pop:
        why = pop_both(i);
        break;
      case OpKind::Peek:
        if (std::bit_cast<std::uint64_t>(q.next_time()) !=
            std::bit_cast<std::uint64_t>(ref.next_time()))
          why = "op " + std::to_string(i) + ": next_time " +
                fmt(q.next_time()) + ", oracle " + fmt(ref.next_time());
        break;
      case OpKind::RunUntil:
        // Simulation::run_until: pop while the peeked time is due, then
        // move the clock — leaving a peeked batch that later pushes may
        // precede.
        while (why.empty() && q.next_time() <= t) why = pop_both(i);
        if (why.empty() && ref.next_time() <= t)
          why = "op " + std::to_string(i) + ": run_until stopped early";
        now = std::max(now, t);
        break;
    }
    if (why.empty() && q.size() != ref.size())
      why = "op " + std::to_string(i) + ": size " + std::to_string(q.size()) +
            ", oracle " + std::to_string(ref.size());
    if (!why.empty()) return why;
  }
  while (ref.size() > 0 || !q.empty()) {
    const std::string why = pop_both(s.ops.size());
    if (!why.empty()) return "drain: " + why;
  }
  if (stats) *stats = q.stats();
  return "";
}

/// Seeded schedule generator.  Each schedule draws its own mix of the
/// adversarial ingredients so the battery covers their interleavings.
Schedule gen_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  Schedule s;
  const auto n = static_cast<std::size_t>(rng.uniform_int(20, 700));
  const double p_pop = rng.uniform(0.1, 0.6);
  const double p_far = rng.chance(0.5) ? rng.uniform(0.0, 0.2) : 0.0;
  const double p_storm = rng.chance(0.4) ? rng.uniform(0.0, 0.5) : 0.0;
  const double p_dense = rng.chance(0.4) ? rng.uniform(0.0, 0.6) : 0.0;
  const double p_grid = rng.chance(0.4) ? rng.uniform(0.0, 0.8) : 0.0;
  const double p_geo = rng.chance(0.2) ? rng.uniform(0.0, 0.8) : 0.0;
  const double p_run = rng.chance(0.3) ? rng.uniform(0.0, 0.1) : 0.0;
  const double p_fn = rng.uniform(0.0, 1.0);
  const double scale =
      std::ldexp(1.0, static_cast<int>(rng.uniform_int(-6, 12)));
  // A small pool of absolute times that storms hit over and over.
  std::vector<double> storm_times;
  for (int i = 0; i < 4; ++i)
    storm_times.push_back(rng.uniform(0.0, 4.0) * scale);

  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < p_pop) {
      s.ops.push_back(Op{rng.chance(0.15) ? OpKind::Peek : OpKind::Pop});
      continue;
    }
    if (rng.chance(p_run)) {
      s.ops.push_back(Op{OpKind::RunUntil, rng.uniform(0.0, 2.0) * scale});
      continue;
    }
    Op op{rng.chance(p_fn) ? OpKind::PushFn : OpKind::Push};
    if (rng.chance(p_far)) {
      // Far-future sentinels: a fixed time cap or scattered worker deaths.
      if (rng.chance(0.5)) {
        op.value = 864000.0;
        op.absolute = true;
      } else {
        op.value = rng.uniform(1e3, 1e6) * scale;
      }
    } else if (rng.chance(p_storm)) {
      if (rng.chance(0.5)) {
        op.value = 0.0;  // zero delay: joins the batch being drained
      } else {
        op.value = storm_times[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        op.absolute = true;
      }
    } else if (rng.chance(p_dense)) {
      op.value = rng.uniform(0.0, 1e-3) * scale;  // into the open bucket
    } else if (rng.chance(p_grid)) {
      // Exact binary fractions land on bucket boundaries; thirds do not.
      const double k = static_cast<double>(rng.uniform_int(0, 64));
      op.value = rng.chance(0.7)
                     ? std::ldexp(k, -static_cast<int>(rng.uniform_int(0, 8)))
                     : k / 3.0;
      op.value *= scale;
    } else if (rng.chance(p_geo)) {
      op.value = std::ldexp(scale, -static_cast<int>(rng.uniform_int(0, 45)));
    } else {
      op.value = rng.uniform(0.0, 4.0) * scale;  // an idle poll / a segment
    }
    s.ops.push_back(op);
  }
  return s;
}

Schedule drop_op(const Schedule& s, std::size_t index) {
  Schedule out = s;
  out.ops.erase(out.ops.begin() + static_cast<std::ptrdiff_t>(index));
  return out;
}

/// Greedy shrink: repeatedly drop any op whose removal keeps the failure.
Schedule shrink(Schedule s) {
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      Schedule candidate = drop_op(s, i);
      if (!compare_run(candidate).empty()) {
        s = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  return s;
}

std::string as_literal(const Schedule& s) {
  static const char* const kNames[] = {"Push", "PushFn", "Pop", "Peek",
                                       "RunUntil"};
  std::string out = "Schedule{{\n";
  for (const Op& op : s.ops)
    out += std::string("  {OpKind::") + kNames[static_cast<int>(op.kind)] +
           ", " + fmt(op.value) + (op.absolute ? ", true" : "") + "},\n";
  return out + "}}";
}

// ------------------------------------------------------------ battery ----

TEST(EventQueueDiff, FuzzedSchedulesMatchHeapOracle) {
  std::uint64_t schedules = 2000;
  if (const char* env = std::getenv("LOBSTER_DIFF_SCHEDULES"))
    schedules = std::strtoull(env, nullptr, 10);
  EventQueue::Stats total;
  for (std::uint64_t seed = 1; seed <= schedules; ++seed) {
    const Schedule s = gen_schedule(seed);
    EventQueue::Stats st;
    const std::string mismatch = compare_run(s, &st);
    if (!mismatch.empty()) {
      const Schedule minimal = shrink(s);
      FAIL() << "seed " << seed << ": " << mismatch << "\n"
             << "shrunk to " << minimal.ops.size() << " ops ("
             << compare_run(minimal) << ");\nreplay with:\n"
             << as_literal(minimal);
    }
    total.sorts += st.sorts;
    total.sorts_skipped += st.sorts_skipped;
    total.rebuilds += st.rebuilds;
    total.splits += st.splits;
  }
  // The battery must reach every structural path, or it proves little.
  if (schedules >= 2000) {
    EXPECT_GT(total.sorts, 0u);
    EXPECT_GT(total.sorts_skipped, 0u);
    EXPECT_GT(total.rebuilds, schedules);
    EXPECT_GT(total.splits, 0u);
  }
}

// Targeted interleavings the fuzzer relies on probability to hit.

TEST(EventQueueDiff, PushBeforeAPeekedBatch) {
  // run_until leaves the batch at t=5 peeked; the push at t=3 must pop
  // first, and the batch must then drain in seq order.
  const Schedule s{{
      {OpKind::Push, 5.0, true},
      {OpKind::PushFn, 5.0, true},
      {OpKind::Push, 9.0, true},
      {OpKind::RunUntil, 2.0},
      {OpKind::Push, 1.0},
      {OpKind::PushFn, 3.0, true},
      {OpKind::Pop},
      {OpKind::Push, 0.0},
  }};
  EXPECT_EQ(compare_run(s), "");
}

TEST(EventQueueDiff, SameTimestampStormBesideTimeCap) {
  Schedule s;
  s.ops.push_back({OpKind::Push, 864000.0, true});
  for (int i = 0; i < 500; ++i)
    s.ops.push_back({i % 2 ? OpKind::PushFn : OpKind::Push, 7.0, true});
  for (int i = 0; i < 300; ++i) {
    s.ops.push_back({OpKind::Pop});
    s.ops.push_back({OpKind::Push, 0.0});  // zero delay, mid-batch
  }
  EXPECT_EQ(compare_run(s), "");
}

TEST(EventQueueDiff, DenseBurstIntoTheOpenBucket) {
  // Hundreds of distinct near-term times pushed into the bucket being
  // drained, each placed among the earlier ones by a sorted insert.
  Schedule s;
  for (int i = 0; i < 64; ++i) s.ops.push_back({OpKind::Push, 100.0 * i});
  s.ops.push_back({OpKind::Push, 1e6});
  for (int round = 0; round < 20; ++round) {
    s.ops.push_back({OpKind::Pop});
    for (int i = 0; i < 200; ++i)
      s.ops.push_back({OpKind::Push, 1e-3 * ((i * 37) % 200 + 1)});
  }
  EXPECT_EQ(compare_run(s), "");
}

TEST(EventQueueDiff, WindowEdgesAndNestedClusters) {
  // Times on exact multiples of the bucket width (the largest one landing
  // on slot == count) and a geometric cluster that needs every rung.
  Schedule s;
  for (int k = 0; k <= 128; ++k) s.ops.push_back({OpKind::Push, 0.5 * k, true});
  for (int k = 0; k < 200; ++k)
    s.ops.push_back({OpKind::PushFn, std::ldexp(1.0, -(k % 50)), true});
  for (int k = 0; k < 150; ++k) s.ops.push_back({OpKind::Pop});
  for (int k = 0; k <= 128; ++k) s.ops.push_back({OpKind::Push, 0.25 * k});
  EXPECT_EQ(compare_run(s), "");
}

TEST(EventQueueDiff, NestedClustersHitTheRungCap) {
  // Forty clusters of 70 items, each 2^12 times tighter than the last and
  // all against t = 0: every split leaves an overfull first bucket, until
  // the rung cap falls back to a plain sort.
  util::Rng rng(7);
  Schedule s;
  s.ops.push_back({OpKind::Push, 0.0, true});
  for (int j = 1; j <= 40; ++j)
    for (int i = 0; i < 70; ++i)
      s.ops.push_back({i % 2 ? OpKind::PushFn : OpKind::Push,
                       rng.uniform() * std::ldexp(1.0, -12 * j), true});
  EventQueue::Stats st;
  EXPECT_EQ(compare_run(s, &st), "");
  EXPECT_GE(st.splits, 7u);
}

// Paste a shrunk schedule literal here to debug a fuzzer failure.
TEST(EventQueueDiff, Replay) {
  const Schedule s{{}};
  EXPECT_EQ(compare_run(s), "");
}

// ---------------------------------------------------------- cost pins ----

struct EngineShapedCost {
  double compares_per_pop = 0.0;
  double retained_per_peak = 0.0;  ///< retained items / peak pending items
  EventQueue::Stats stats;
};

/// `slots` clients, each re-delaying by 60 s (an idle-slot poll), 0 s (a
/// handoff) or 0-600 s (a task segment), beside slots/8 worker-death
/// sentinels hours to days out and a 10-day time cap — the Engine's queue
/// traffic.
EngineShapedCost engine_shaped(std::size_t slots, std::size_t pops) {
  EventQueue q;
  util::Rng rng(2015);
  q.push_resume(864000.0, handle_for(0));
  for (std::size_t i = 0; i < slots / 8; ++i)
    q.push_resume(rng.uniform(3600.0, 5.0 * 86400.0), handle_for(1));
  for (std::size_t i = 0; i < slots; ++i)
    q.push_resume(rng.uniform(0.0, 600.0), handle_for(2));
  std::size_t peak = q.size();
  for (std::size_t k = 0; k < pops; ++k) {
    EventQueue::Item it;
    if (!q.pop_next(it)) break;
    if (it.handle == handle_for(2)) {
      const double r = rng.uniform();
      const double delay =
          r < 0.5 ? 60.0 : r < 0.6 ? 0.0 : rng.uniform(0.0, 600.0);
      q.push_resume(it.time + delay, it.handle);
    }
    peak = std::max(peak, q.size());
  }
  EngineShapedCost c;
  c.stats = q.stats();
  c.compares_per_pop =
      static_cast<double>(c.stats.items_compared) / static_cast<double>(pops);
  c.retained_per_peak = static_cast<double>(c.stats.retained_items) /
                        static_cast<double>(peak);
  return c;
}

TEST(EventQueueCost, ComparisonsPerPopAreLogarithmic) {
  for (std::size_t slots : {300, 3000}) {
    const EngineShapedCost c = engine_shaped(slots, 200000);
    const double log2n = std::log2(static_cast<double>(slots));
    EXPECT_LE(c.compares_per_pop, 0.5 * log2n)
        << slots << " slots: " << c.compares_per_pop << " compares/pop";
  }
}

TEST(EventQueueCost, CostGrowsSublinearlyFromNTo10N) {
  const EngineShapedCost small = engine_shaped(300, 200000);
  const EngineShapedCost large = engine_shaped(3000, 200000);
  // Same pop count: a linear-per-pop queue would cost 10x; log n is ~1.4x.
  EXPECT_LT(large.compares_per_pop, 2.0 * small.compares_per_pop)
      << small.compares_per_pop << " -> " << large.compares_per_pop;
  const double work_small =
      static_cast<double>(small.stats.sorts + small.stats.splits);
  const double work_large =
      static_cast<double>(large.stats.sorts + large.stats.splits);
  EXPECT_LT(work_large, 3.0 * work_small);
}

TEST(EventQueueCost, RetainedStorageTracksPeakPending) {
  // Buckets keep their recent fill between windows (so steady state does
  // not reallocate), capped per bucket; with one bucket per two items that
  // stays within 16x the peak pending items.  Buckets that keep the
  // capacity of their fullest moment retain about 70x here.
  for (std::size_t slots : {300, 3000}) {
    const EngineShapedCost c = engine_shaped(slots, 200000);
    EXPECT_LE(c.retained_per_peak, 16.0)
        << slots << " slots retain " << c.stats.retained_items << " items";
  }
}

}  // namespace
}  // namespace lobster
