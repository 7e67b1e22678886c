// Differential-testing battery for the per-cap-class virtual-time link.
//
// des::BandwidthLink integrates one service counter per cap class and
// batches same-timestamp updates; tests/reference_link.hpp is the naive
// from-scratch water-filler that subtracts rate * dt from every flow.  The
// two round differently, so seeded schedule fuzzers drive both through
// thousands of generated join/finish/cap-change/outage interleavings and
// demand agreement within a relative tolerance (see kTol below):
//
//   * the same flows complete, at times within kTol;
//   * completions further apart than kTol happen in the same order;
//   * probed per-flow remaining bytes, per-flow rates and the aggregate
//     allocation agree within kTol.
//
// On mismatch the failing schedule is greedily shrunk (drop one op at a
// time while the failure persists) and printed as a replayable C++
// literal; paste it into the Replay test below to debug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "des/bandwidth.hpp"
#include "des/simulation.hpp"
#include "reference_link.hpp"
#include "util/rng.hpp"

namespace lobster {
namespace {

constexpr double kUncapped = des::BandwidthLink::kUncapped;

// Relative tolerance of every comparison.  A class counter carries the
// rounding of every increment of its busy period, where the oracle carries
// only the flow's own; the absolute floors below are the link's byte
// resolution (its 1e-6 B completion epsilon) and one microsecond.  At
// 20 000 schedules per family the widest gaps measured were 4e-13 on
// completion times, 1.8e-10 of a flow's size on remaining bytes and
// 1.4e-15 on rates and the allocation.
constexpr double kTol = 1e-9;
constexpr double kBytesFloor = 1e-6;
constexpr double kTimeFloor = 1e-6;

enum class OpKind { Join, SetCapacity };

struct Op {
  double at = 0.0;
  OpKind kind = OpKind::Join;
  /// Join: transfer size in bytes.  SetCapacity: the new capacity.
  double value = 0.0;
  /// Join only: per-flow rate cap (kUncapped for none).
  double cap = kUncapped;
};

struct Schedule {
  double capacity = 0.0;
  double horizon = 0.0;
  std::vector<Op> ops;
};

struct FlowOutcome {
  bool completed = false;
  double at = 0.0;
  std::size_t order = 0;  ///< position in the run's completion sequence
};

struct FlowProbe {
  std::uint64_t id = 0;
  double total = 0.0;
  double remaining = 0.0;
  double rate = 0.0;
};

struct ProbePoint {
  double at = 0.0;
  double allocated = 0.0;
  std::vector<FlowProbe> flows;  // ascending flow id
};

struct RunTrace {
  std::vector<FlowOutcome> outcomes;  // indexed by join order
  std::vector<ProbePoint> probes;
  std::size_t completions = 0;
  std::uint64_t events = 0;
};

template <typename Link>
des::Process join_proc(des::Simulation& sim, Link& link, double bytes,
                       double cap, FlowOutcome& out, std::size_t& seq) {
  co_await link.transfer(bytes, cap);
  out.completed = true;
  out.at = sim.now();
  out.order = seq++;
}

// Ops land on a 2^-3 time grid and probes 2^-6 after each op timestamp:
// dyadic, so probe events sort strictly after every same-timestamp op
// *and* after the incremental link's zero-delay batch flush — probes never
// observe a half-applied burst.
constexpr double kProbeOffset = 0.015625;

template <typename Link>
RunTrace run_schedule(const Schedule& s) {
  des::Simulation sim;
  Link link(sim, s.capacity);
  RunTrace trace;
  std::size_t joins = 0;
  for (const Op& op : s.ops)
    if (op.kind == OpKind::Join) ++joins;
  trace.outcomes.resize(joins);

  std::size_t join_index = 0;
  double last_probe_at = -1.0;
  for (const Op& op : s.ops) {
    if (op.kind == OpKind::Join) {
      FlowOutcome& out = trace.outcomes[join_index++];
      const double bytes = op.value;
      const double cap = op.cap;
      sim.schedule(op.at, [&sim, &link, &trace, bytes, cap, &out] {
        sim.spawn(join_proc(sim, link, bytes, cap, out, trace.completions));
      });
    } else {
      const double capacity = op.value;
      sim.schedule(op.at, [&link, capacity] { link.set_capacity(capacity); });
    }
    const double probe_at = op.at + kProbeOffset;
    if (probe_at == last_probe_at) continue;  // one probe per burst
    last_probe_at = probe_at;
    sim.schedule(probe_at, [&sim, &link, &trace] {
      ProbePoint p;
      p.at = sim.now();
      p.allocated = link.allocated_rate();
      link.for_each_flow([&p](std::uint64_t id, double total,
                              double remaining, double /*cap*/, double rate) {
        p.flows.push_back(FlowProbe{id, total, remaining, rate});
      });
      trace.probes.push_back(std::move(p));
    });
  }
  sim.run_until(s.horizon);
  trace.events = sim.events_executed();
  return trace;
}

bool close(double a, double b, double floor) {
  if (a == b) return true;  // also equal infinities
  return std::abs(a - b) <= kTol * std::max(std::abs(a), std::abs(b)) + floor;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Run the schedule through both links; empty string on agreement, else a
/// description of the first divergence.
std::string compare_run(const Schedule& s) {
  const RunTrace inc = run_schedule<des::BandwidthLink>(s);
  const RunTrace ref = run_schedule<testref::ReferenceLink>(s);

  const std::size_t n = inc.outcomes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FlowOutcome& a = inc.outcomes[i];
    const FlowOutcome& b = ref.outcomes[i];
    if (a.completed != b.completed)
      return "join #" + std::to_string(i) + " completion disagrees: inc=" +
             (a.completed ? "done" : "pending") + " ref=" +
             (b.completed ? "done" : "pending");
    if (a.completed && !close(a.at, b.at, kTimeFloor))
      return "join #" + std::to_string(i) + " completion time drifted: inc=" +
             fmt(a.at) + " ref=" + fmt(b.at);
  }
  // Order: walk completions in reference time; every completion clearly
  // (beyond the tolerance) earlier in the reference must also be earlier
  // in the link's completion sequence.
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < n; ++i)
    if (ref.outcomes[i].completed) done.push_back(i);
  std::sort(done.begin(), done.end(), [&ref](std::size_t a, std::size_t b) {
    return ref.outcomes[a].at < ref.outcomes[b].at;
  });
  std::size_t earlier = 0;   // done[0, earlier) are clearly before done[k]
  std::size_t latest = n;    // among those, the one the link finished last
  for (const std::size_t j : done) {
    const double tj = ref.outcomes[j].at;
    for (; earlier < done.size(); ++earlier) {
      const std::size_t i = done[earlier];
      const double ti = ref.outcomes[i].at;
      if (ti >= tj || close(ti, tj, kTimeFloor)) break;
      if (latest == n || inc.outcomes[i].order > inc.outcomes[latest].order)
        latest = i;
    }
    if (latest != n && inc.outcomes[latest].order > inc.outcomes[j].order)
      return "joins #" + std::to_string(latest) + " and #" +
             std::to_string(j) + " completed out of order: ref " +
             fmt(ref.outcomes[latest].at) + " < " + fmt(tj) + ", inc " +
             fmt(inc.outcomes[latest].at) + " / " + fmt(inc.outcomes[j].at);
  }
  if (inc.probes.size() != ref.probes.size())
    return "probe count disagrees (harness bug)";
  for (std::size_t i = 0; i < inc.probes.size(); ++i) {
    const ProbePoint& a = inc.probes[i];
    const ProbePoint& b = ref.probes[i];
    if (a.flows.size() != b.flows.size())
      return "probe at t=" + fmt(a.at) + ": live flow count inc=" +
             std::to_string(a.flows.size()) + " ref=" +
             std::to_string(b.flows.size());
    if (!close(a.allocated, b.allocated, 0.0))
      return "probe at t=" + fmt(a.at) + ": allocated_rate inc=" +
             fmt(a.allocated) + " ref=" + fmt(b.allocated);
    for (std::size_t j = 0; j < a.flows.size(); ++j) {
      const FlowProbe& fa = a.flows[j];
      const FlowProbe& fb = b.flows[j];
      if (fa.id != fb.id)
        return "probe at t=" + fmt(a.at) + ": flow id order diverged";
      // Remaining bytes are held relative to the flow's size: the error is
      // the counter's, not a fraction of what is left.
      if (std::abs(fa.remaining - fb.remaining) >
          kTol * fa.total + kBytesFloor)
        return "probe at t=" + fmt(a.at) + " flow " + std::to_string(fa.id) +
               ": remaining inc=" + fmt(fa.remaining) +
               " ref=" + fmt(fb.remaining);
      if (!close(fa.rate, fb.rate, 0.0))
        return "probe at t=" + fmt(a.at) + " flow " + std::to_string(fa.id) +
               ": rate inc=" + fmt(fa.rate) + " ref=" + fmt(fb.rate);
    }
  }
  return {};
}

// ------------------------------------------------------ schedule fuzzers ----

/// Advance the op clock: a same-timestamp burst (exercises the coalesced
/// batch flush), one grid step, or a longer gap.
double next_time(util::Rng& shape, double t, bool first, int max_gap) {
  const double roll = shape.uniform();
  if (!first && roll < 0.30) return t;
  if (roll < 0.65) return t + 0.125;
  return t + 0.125 * static_cast<double>(1 + shape.uniform_int(0, max_gap));
}

Schedule gen_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng shape = rng.stream("shape");
  util::Rng values = rng.stream("values");

  Schedule s;
  s.capacity = std::pow(10.0, shape.uniform(0.0, 3.0));
  const std::int64_t n_ops = 4 + shape.uniform_int(0, 36);
  double t = 0.0;
  double capacity_now = s.capacity;
  for (std::int64_t i = 0; i < n_ops; ++i) {
    t = next_time(shape, t, i == 0, 40);
    Op op;
    op.at = t;
    if (shape.uniform() < 0.75) {
      op.kind = OpKind::Join;
      const double size_roll = values.uniform();
      if (size_roll < 0.10) {
        // Sub-epsilon joiner: completes at its own join timestamp.
        op.value = values.uniform(1e-9, 1e-6);
      } else {
        op.value = std::pow(10.0, values.uniform(-3.0, 4.0));
      }
      const double cap_roll = values.uniform();
      if (cap_roll < 0.30) {
        op.cap = kUncapped;
      } else if (cap_roll < 0.50) {
        // Near-equal caps: stresses the class walk's tie handling.
        op.cap = 1.0 + values.uniform(0.0, 1e-9);
      } else {
        op.cap = std::pow(10.0, values.uniform(-2.0, 2.0));
      }
    } else {
      op.kind = OpKind::SetCapacity;
      op.value =
          values.uniform() < 0.30 ? 0.0 : std::pow(10.0, values.uniform(0.0, 3.0));
      capacity_now = op.value;
    }
    s.ops.push_back(op);
  }
  if (capacity_now == 0.0) {
    // Outages always lift: "capacity to 0 and back" must include the back.
    t += 0.125;
    s.ops.push_back(Op{t, OpKind::SetCapacity, s.capacity, kUncapped});
  }
  s.horizon = t + 1e7;  // generous drain window; stragglers stay pending
  return s;
}

/// One cap class hovering at saturation: the capacity fits eight flows at
/// their cap, and arrivals (one per ~0.44 s, each needing ~3 s at its
/// cap) keep about that many in flight, so joins and completions keep
/// moving the class across the fair share.
Schedule gen_saturation_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng shape = rng.stream("saturation-shape");
  util::Rng values = rng.stream("saturation-values");
  const double cap = std::pow(10.0, shape.uniform(-1.0, 2.0));
  Schedule s;
  s.capacity = 8.0 * cap * (1.0 + shape.uniform(-1e-9, 1e-9));
  const std::int64_t n_ops = 20 + shape.uniform_int(0, 40);
  double t = 0.0;
  for (std::int64_t i = 0; i < n_ops; ++i) {
    t = next_time(shape, t, i == 0, 16);
    s.ops.push_back(
        Op{t, OpKind::Join, cap * values.uniform(0.5, 6.0), cap});
  }
  s.horizon = t + 1e7;
  return s;
}

/// A few caps on one link, with the fair share crossing them as flows come
/// and go and the capacity steps, so classes change sides in both
/// directions.
Schedule gen_mixed_caps_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng shape = rng.stream("mixed-shape");
  util::Rng values = rng.stream("mixed-values");
  const double unit = std::pow(10.0, shape.uniform(-1.0, 2.0));
  const double caps[] = {unit, 2.0 * unit, 3.0 * unit, 4.0 * unit, kUncapped};
  Schedule s;
  s.capacity = 16.0 * unit;
  const std::int64_t n_ops = 20 + shape.uniform_int(0, 40);
  double t = 0.0;
  for (std::int64_t i = 0; i < n_ops; ++i) {
    t = next_time(shape, t, i == 0, 16);
    if (shape.uniform() < 0.9) {
      s.ops.push_back(Op{t, OpKind::Join, unit * values.uniform(0.5, 40.0),
                         caps[values.uniform_int(0, 4)]});
    } else {
      s.ops.push_back(Op{t, OpKind::SetCapacity,
                         unit * values.uniform(4.0, 32.0), kUncapped});
    }
  }
  s.horizon = t + 1e7;
  return s;
}

/// Every flow cap-bound under the capacity for the whole run, so the
/// link's join-time solve and its kept timer decide every join.  Bursts,
/// joiners that finish before the current head, sub-epsilon joiners and
/// one capacity step that stays above the sum of every cap.  Half the
/// schedules are dyadic (power-of-two caps, sizes on the 2^-3 grid of
/// durations): their exact arithmetic lands most re-solved instants on the
/// armed one bit for bit, which is when the link skips the flush.
Schedule gen_cap_bound_schedule(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng shape = rng.stream("cap-bound-shape");
  util::Rng values = rng.stream("cap-bound-values");
  const bool dyadic = shape.chance(0.5);
  const double unit =
      dyadic ? std::ldexp(1.0, static_cast<int>(shape.uniform_int(-4, 4)))
             : std::pow(10.0, shape.uniform(-1.0, 2.0));
  const std::int64_t n_ops = 20 + shape.uniform_int(0, 40);
  const std::int64_t step = shape.uniform_int(n_ops / 4, 3 * n_ops / 4);
  Schedule s;
  double t = 0.0;
  double cap_sum = 0.0;
  for (std::int64_t i = 0; i < n_ops; ++i) {
    t = next_time(shape, t, i == 0, 16);
    if (i == step) {  // its value is set once every cap is known
      s.ops.push_back(Op{t, OpKind::SetCapacity, 0.0, kUncapped});
      continue;
    }
    const double cap = dyadic ? unit * static_cast<double>(
                                           std::int64_t{1}
                                           << values.uniform_int(0, 2))
                              : unit * values.uniform(0.5, 4.0);
    cap_sum += cap;
    // Seconds at the cap: sub-epsilon, shorter than a typical head's
    // remaining time, or long.
    const double roll = values.uniform();
    double seconds = 0.0;
    if (roll < 0.10)
      seconds = (dyadic ? std::ldexp(1.0, -28) : values.uniform(1e-9, 1e-6)) /
                cap;
    else if (roll < 0.40)
      seconds = dyadic ? 0.125 * static_cast<double>(values.uniform_int(1, 8))
                       : values.uniform(0.05, 1.0);
    else
      seconds = dyadic ? 0.125 * static_cast<double>(values.uniform_int(8, 320))
                       : values.uniform(1.0, 40.0);
    s.ops.push_back(Op{t, OpKind::Join, cap * seconds, cap});
  }
  const auto headroom = [&] {
    return dyadic ? 2.0 * static_cast<double>(shape.uniform_int(1, 2))
                  : shape.uniform(1.25, 4.0);
  };
  s.capacity = cap_sum * headroom();
  s.ops[static_cast<std::size_t>(step)].value = cap_sum * headroom();
  s.horizon = t + 1e7;
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
  std::string out = "Schedule{/*capacity=*/" + fmt(s.capacity) +
                    ", /*horizon=*/" + fmt(s.horizon) + ", {\n";
  for (const Op& op : s.ops) {
    out += "  {/*at=*/" + fmt(op.at) + ", OpKind::" +
           (op.kind == OpKind::Join ? "Join" : "SetCapacity") + ", /*value=*/" +
           fmt(op.value) + ", /*cap=*/" +
           (op.cap == kUncapped ? std::string("kUncapped") : fmt(op.cap)) +
           "},\n";
  }
  out += "}}";
  return out;
}

/// Fuzz `count` seeds of one generator; LOBSTER_DIFF_SCHEDULES overrides
/// the count.  The first mismatch is shrunk and printed.
void fuzz(const std::function<Schedule(std::uint64_t)>& gen,
          std::uint64_t count) {
  if (const char* env = std::getenv("LOBSTER_DIFF_SCHEDULES"))
    count = std::strtoull(env, nullptr, 10);
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    const Schedule s = gen(seed);
    const std::string mismatch = compare_run(s);
    if (mismatch.empty()) continue;
    const Schedule minimal = shrink(s);
    FAIL() << "seed " << seed << ": " << mismatch << "\n"
           << "shrunk to " << minimal.ops.size() << " ops ("
           << compare_run(minimal) << ");\nreplay with:\n"
           << as_literal(minimal);
  }
}

// ------------------------------------------------------------------ tests ----

TEST(BandwidthDiff, FuzzedSchedulesMatchOracle) { fuzz(gen_schedule, 5000); }

TEST(BandwidthDiff, UniformCapsAtSaturationMatchOracle) {
  fuzz(gen_saturation_schedule, 500);
}

TEST(BandwidthDiff, MixedCapsCrossingFairShareMatchOracle) {
  fuzz(gen_mixed_caps_schedule, 500);
}

TEST(BandwidthDiff, CapBoundUnderCapacityMatchOracle) {
  fuzz(gen_cap_bound_schedule, 2000);
}

// One class busy for 1e7 simulated seconds: 1 GB flows arrive slightly
// faster than the link drains them, and 1 B flows ride along.  The class
// counter ends near 1e10 B, where one ulp exceeds the 1 B flows' completion
// epsilon — every flow must still finish, in a bounded number of events.
TEST(BandwidthDiff, LongBusyClassDoesNotStall) {
  Schedule s{/*capacity=*/1e4, /*horizon=*/2e7, {}};
  for (double t = 0.0; t < 1e7; t += 90000.0)
    s.ops.push_back(Op{t, OpKind::Join, 1e9, kUncapped});
  for (double t = 500.0; t < 1e7; t += 997.0)
    s.ops.push_back(Op{t, OpKind::Join, 1.0, kUncapped});
  std::sort(s.ops.begin(), s.ops.end(),
            [](const Op& a, const Op& b) { return a.at < b.at; });
  EXPECT_EQ(compare_run(s), "");
  const RunTrace inc = run_schedule<des::BandwidthLink>(s);
  EXPECT_EQ(inc.completions, s.ops.size());
  // Per flow: a spawn, a batch flush, a completion timer, a resume, and
  // the probe; superseded timers stay below one per flow.
  EXPECT_LT(inc.events, 8 * s.ops.size());
}

// Targeted interleavings the fuzzer relies on probability to hit.

TEST(BandwidthDiff, SameTimestampBurstCoalesces) {
  Schedule s{/*capacity=*/100.0, /*horizon=*/1e6, {}};
  for (int i = 0; i < 32; ++i)
    s.ops.push_back(Op{1.0, OpKind::Join, 250.0 + 10.0 * i,
                       i % 3 == 0 ? 5.0 : kUncapped});
  EXPECT_EQ(compare_run(s), "");
}

TEST(BandwidthDiff, CapacityToZeroAndBackMidFlight) {
  const Schedule s{/*capacity=*/100.0, /*horizon=*/1e6,
                   {
                       {0.0, OpKind::Join, 1000.0, kUncapped},
                       {0.5, OpKind::Join, 400.0, 30.0},
                       {1.0, OpKind::SetCapacity, 0.0, kUncapped},
                       {1.0, OpKind::Join, 500.0, kUncapped},
                       {8.0, OpKind::SetCapacity, 100.0, kUncapped},
                   }};
  EXPECT_EQ(compare_run(s), "");
}

// Sub-epsilon joiners complete at their own join timestamp, on both links,
// even mid-outage.
TEST(BandwidthDiff, SubEpsilonJoinersMatchOracle) {
  const Schedule s{/*capacity=*/10.0, /*horizon=*/1e6,
                   {
                       {0.0, OpKind::Join, 100.0, kUncapped},
                       {1.0, OpKind::Join, 5e-7, kUncapped},
                       {1.0, OpKind::Join, 1e-8, 0.001},
                       {2.0, OpKind::Join, 50.0, 2.0},
                       {3.0, OpKind::SetCapacity, 0.0, kUncapped},
                       {3.5, OpKind::Join, 1e-7, kUncapped},
                       {4.0, OpKind::SetCapacity, 10.0, kUncapped},
                   }};
  EXPECT_EQ(compare_run(s), "");
  const RunTrace inc = run_schedule<des::BandwidthLink>(s);
  EXPECT_EQ(inc.outcomes[1].at, 1.0);
  EXPECT_EQ(inc.outcomes[2].at, 1.0);
  EXPECT_EQ(inc.outcomes[4].at, 3.5);
}

TEST(BandwidthDiff, NearEqualCapBandMigration) {
  // Caps straddle the fair share so joins move classes cap-bound ->
  // fair-share and completions move them back.
  Schedule s{/*capacity=*/64.0, /*horizon=*/1e6, {}};
  for (int i = 0; i < 24; ++i)
    s.ops.push_back(Op{0.25 * i, OpKind::Join, 100.0 + 7.0 * i,
                       2.0 + 0.125 * (i % 8)});
  EXPECT_EQ(compare_run(s), "");
}

// Paste a shrunk schedule literal here to debug a fuzzer failure.
TEST(BandwidthDiff, Replay) {
  const Schedule s{/*capacity=*/100.0, /*horizon=*/1e6, {}};
  EXPECT_EQ(compare_run(s), "");
}

}  // namespace
}  // namespace lobster
