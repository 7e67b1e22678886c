// Unit and property tests for the discrete-event simulation kernel:
// ordering, coroutine processes, events, resources and the
// fair-share bandwidth link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/bandwidth.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace des = lobster::des;
namespace lu = lobster::util;

// ----------------------------------------------------------- scheduling ----

TEST(Simulation, EventsFireInTimeOrder) {
  des::Simulation sim;
  std::vector<double> fired;
  sim.schedule(3.0, [&] { fired.push_back(sim.now()); });
  sim.schedule(1.0, [&] { fired.push_back(sim.now()); });
  sim.schedule(2.0, [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
  EXPECT_DOUBLE_EQ(fired[1], 2.0);
  EXPECT_DOUBLE_EQ(fired[2], 3.0);
}

TEST(Simulation, SameTimeEventsFifo) {
  des::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
  des::Simulation sim;
  double inner_time = -1.0;
  sim.schedule(1.0, [&] {
    sim.schedule(2.5, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.5);
}

TEST(Simulation, RunUntilStopsAndSetsNow) {
  des::Simulation sim;
  int count = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) sim.schedule(t, [&] { ++count; });
  sim.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulation, NegativeDelayRejected) {
  des::Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
}

// Property: a randomized burst of schedules always executes in
// non-decreasing time order.
TEST(Simulation, PropertyMonotoneExecution) {
  lu::Rng rng(99);
  des::Simulation sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 5000; ++i) {
    sim.schedule(rng.uniform(0.0, 100.0), [&] {
      monotone &= sim.now() >= last;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 5000u);
}

// ------------------------------------------------------------ processes ----

namespace {
des::Process ping_pong(des::Simulation& sim, std::vector<double>& log,
                       double period, int repeats) {
  for (int i = 0; i < repeats; ++i) {
    co_await sim.delay(period);
    log.push_back(sim.now());
  }
}
}  // namespace

TEST(Process, DelayLoopAdvancesTime) {
  des::Simulation sim;
  std::vector<double> log;
  sim.spawn(ping_pong(sim, log, 2.0, 3));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[2], 6.0);
}

TEST(Process, JoinViaDoneEvent) {
  des::Simulation sim;
  std::vector<double> log;
  bool joined = false;
  auto ref = sim.spawn(ping_pong(sim, log, 1.0, 5));
  auto joiner = [](des::Simulation& s, des::ProcessRef r,
                   bool& flag) -> des::Process {
    co_await r.done();
    flag = true;
    (void)s;
  };
  sim.spawn(joiner(sim, ref, joined));
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Process, UnfinishedProcessesDestroyedWithSim) {
  // A process blocked forever must not leak when the simulation dies.
  auto forever = [](des::Simulation& s, des::Event& ev) -> des::Process {
    co_await ev;
    co_await s.delay(1.0);
  };
  des::Simulation sim;
  des::Event never(sim);
  sim.spawn(forever(sim, never));
  sim.run();
  EXPECT_EQ(sim.live_processes(), 1u);
  // Destructor runs here; ASAN/valgrind would flag a leak if broken.
}

TEST(Process, ExceptionPropagatesToRun) {
  auto thrower = [](des::Simulation& s) -> des::Process {
    co_await s.delay(1.0);
    throw std::runtime_error("boom");
  };
  des::Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// ---------------------------------------------------------------- event ----

TEST(Event, BroadcastWakesAllWaiters) {
  des::Simulation sim;
  des::Event ev(sim);
  int woken = 0;
  auto waiter = [](des::Event& e, int& n) -> des::Process {
    co_await e;
    ++n;
  };
  for (int i = 0; i < 4; ++i) sim.spawn(waiter(ev, woken));
  sim.schedule(10.0, [&] { ev.trigger(); });
  sim.run();
  EXPECT_EQ(woken, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Event, AwaitAfterTriggerCompletesImmediately) {
  des::Simulation sim;
  des::Event ev(sim);
  ev.trigger();
  double when = -1.0;
  auto waiter = [](des::Simulation& s, des::Event& e, double& t) -> des::Process {
    co_await e;
    t = s.now();
  };
  sim.spawn(waiter(sim, ev, when));
  sim.run();
  EXPECT_DOUBLE_EQ(when, 0.0);
}

TEST(Event, DoubleTriggerIsIdempotent) {
  des::Simulation sim;
  des::Event ev(sim);
  ev.trigger();
  ev.trigger();
  EXPECT_TRUE(ev.triggered());
  sim.run();
}

// -------------------------------------------------------------- resource ----

namespace {
des::Process hold_resource(des::Simulation& sim, des::Resource& res,
                           double duration, std::vector<double>& done_times,
                           std::int64_t amount = 1) {
  auto token = co_await res.acquire(amount);
  co_await sim.delay(duration);
  done_times.push_back(sim.now());
}
}  // namespace

TEST(Resource, LimitsConcurrency) {
  des::Simulation sim;
  des::Resource res(sim, 2);
  std::vector<double> done;
  for (int i = 0; i < 6; ++i) sim.spawn(hold_resource(sim, res, 10.0, done));
  sim.run();
  // 6 holders, 2 at a time, 10s each => batches at 10, 20, 30.
  ASSERT_EQ(done.size(), 6u);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_DOUBLE_EQ(done[3], 20.0);
  EXPECT_DOUBLE_EQ(done[5], 30.0);
  EXPECT_EQ(res.available(), 2);
}

TEST(Resource, FifoNoStarvationOfLargeRequest) {
  des::Simulation sim;
  des::Resource res(sim, 4);
  std::vector<double> done;
  // Occupy all 4, then queue a request of 4, then small ones behind it.
  sim.spawn(hold_resource(sim, res, 10.0, done, 4));
  sim.spawn(hold_resource(sim, res, 10.0, done, 4));
  sim.spawn(hold_resource(sim, res, 1.0, done, 1));
  sim.spawn(hold_resource(sim, res, 1.0, done, 1));
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  // Big request must run before the small ones that arrived later.
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 20.0);
  EXPECT_DOUBLE_EQ(done[2], 21.0);
}

TEST(Resource, TryAcquireAndRelease) {
  des::Simulation sim;
  des::Resource res(sim, 3);
  EXPECT_TRUE(res.try_acquire(2));
  EXPECT_FALSE(res.try_acquire(2));
  EXPECT_EQ(res.in_use(), 2);
  res.release(2);
  EXPECT_EQ(res.available(), 3);
}

TEST(Resource, ElasticCapacity) {
  des::Simulation sim;
  des::Resource res(sim, 1);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) sim.spawn(hold_resource(sim, res, 10.0, done));
  sim.schedule(0.5, [&] { res.set_capacity(4); });
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  // After growth at t=0.5 the three queued holders start together.
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[3], 10.5);
}

TEST(Resource, TokenMoveTransfersOwnership) {
  des::Simulation sim;
  des::Resource res(sim, 1);
  {
    des::ResourceToken outer;
    {
      EXPECT_TRUE(res.try_acquire(1));
      des::ResourceToken inner(&res, 1);
      outer = std::move(inner);
      EXPECT_FALSE(inner.held());
    }
    EXPECT_EQ(res.available(), 0);  // still held by outer
  }
  EXPECT_EQ(res.available(), 1);
}

// ------------------------------------------------------------- bandwidth ----

namespace {
des::Process do_transfer(des::Simulation& sim, des::BandwidthLink& link,
                         double bytes, double cap, std::vector<double>& done) {
  co_await link.transfer(bytes, cap);
  done.push_back(sim.now());
}
}  // namespace

TEST(Bandwidth, SingleFlowTakesBytesOverCapacity) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);  // 100 B/s
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);
}

TEST(Bandwidth, TwoEqualFlowsShareFairly) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-9);
  EXPECT_NEAR(done[1], 20.0, 1e-9);
}

TEST(Bandwidth, ShortFlowFinishesThenLongSpeedsUp) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 2000.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 500.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Short flow: 500 B at 50 B/s => t=10.  Long: 500B by t=10, then full rate
  // for remaining 1500B => t=25.
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 25.0, 1e-9);
}

TEST(Bandwidth, PerFlowCapRespected) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 1000.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, 10.0, done));  // capped at 10 B/s
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 100.0, 1e-9);
}

TEST(Bandwidth, MaxMinWaterFilling) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  // One capped flow (10 B/s) + two uncapped sharing the residual 90 B/s.
  sim.spawn(do_transfer(sim, link, 100.0, 10.0, done));
  sim.spawn(do_transfer(sim, link, 450.0, des::BandwidthLink::kUncapped, done));
  sim.spawn(do_transfer(sim, link, 450.0, des::BandwidthLink::kUncapped, done));
  sim.run_until(5.0);
  EXPECT_NEAR(link.allocated_rate(), 100.0, 1e-9);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);  // capped flow: 100B / 10B/s
  // Uncapped: 45 B/s for 10 s = 450 done right at the same moment.
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(Bandwidth, OutageStallsAndResumes) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped, done));
  sim.schedule(5.0, [&] { link.set_capacity(0.0); });   // outage at t=5
  sim.schedule(15.0, [&] { link.set_capacity(100.0); });  // restored at t=15
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 20.0, 1e-9);  // 10s of work + 10s stalled
}

TEST(Bandwidth, ZeroByteTransferIsImmediate) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  std::vector<double> done;
  sim.spawn(do_transfer(sim, link, 0.0, des::BandwidthLink::kUncapped, done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 0.0);
}

// bytes_moved() integrates up to now() between the link's own events, and
// reading it changes nothing: the completion times match a run without
// reads bit for bit.
TEST(Bandwidth, BytesMovedBetweenEventsIsTheIntegral) {
  const auto run = [](bool read, std::vector<double>& done) {
    des::Simulation sim;
    des::BandwidthLink link(sim, 100.0);
    sim.spawn(do_transfer(sim, link, 1000.0, des::BandwidthLink::kUncapped,
                          done));
    sim.schedule(2.0, [&] {
      sim.spawn(do_transfer(sim, link, 500.0, 20.0, done));
    });
    // 100 B/s throughout until the uncapped flow finishes at t=12, then the
    // capped one alone at 20 B/s until t=27.
    const auto integral = [](double t) {
      return t <= 12.0 ? 100.0 * t
                       : std::min(1500.0, 1200.0 + 20.0 * (t - 12.0));
    };
    if (read)
      for (const double t : {1.0, 5.5, 11.99, 13.0, 20.0, 30.0})
        sim.schedule(t, [&sim, &link, integral] {
          EXPECT_NEAR(link.bytes_moved(), integral(sim.now()), 1e-9)
              << "t=" << sim.now();
        });
    sim.run();
  };
  std::vector<double> with_reads, without;
  run(true, with_reads);
  run(false, without);
  ASSERT_EQ(without.size(), 2u);
  EXPECT_NEAR(without[0], 12.0, 1e-9);
  EXPECT_NEAR(without[1], 27.0, 1e-9);
  EXPECT_EQ(with_reads, without);
}

// Cost pin, by counted work rather than wall time: 200 short transfers
// churn through n long-running flows of the same cap class.  The work per
// solve (classes walked plus flows popped) must not grow with n — a link
// that walks its flows per event fails at 10n.
TEST(Bandwidth, EventCostDoesNotGrowWithFlowsInOneClass) {
  const auto work_per_solve = [](int n) {
    des::Simulation sim;
    des::BandwidthLink link(sim, 1e9);
    std::vector<double> done;
    for (int i = 0; i < n; ++i)
      (void)link.start_flow(1e15, des::BandwidthLink::kUncapped);
    for (int k = 0; k < 200; ++k)
      sim.schedule(1.0 + k, [&] {
        sim.spawn(do_transfer(sim, link, 1e3, des::BandwidthLink::kUncapped,
                              done));
      });
    sim.run_until(300.0);
    EXPECT_EQ(done.size(), 200u);
    const des::BandwidthLink::Stats& st = link.stats();
    EXPECT_EQ(st.flows_popped, 200u);
    EXPECT_GT(st.solves, 400u);
    return static_cast<double>(st.classes_walked + st.flows_popped) /
           static_cast<double>(st.solves);
  };
  const double small = work_per_solve(1000);
  const double large = work_per_solve(10000);
  EXPECT_LT(large, 2.0 * small)
      << "n=1000: " << small << ", n=10000: " << large;
}

// Cost pin: while every flow is cap-bound under the capacity, a join that
// completes after the head keeps the armed timer and schedules no flush.
// Flow 0 (100 B at 10 B/s) is the head until t=10; one 1000 B joiner per
// second never overtakes it.  Integer rates and sizes keep every re-solved
// instant exact, so each join lands on the armed one.
TEST(Bandwidth, StaggeredCapBoundJoinsScheduleNothing) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 1000.0);
  std::vector<std::shared_ptr<des::Event>> done;
  for (int k = 0; k < 10; ++k)
    sim.schedule(static_cast<double>(k), [&link, &done, k] {
      done.push_back(link.start_flow(k == 0 ? 100.0 : 1000.0, 10.0));
    });
  sim.run_until(9.5);
  // Ten join callbacks plus the first join's flush, which arms the timer.
  EXPECT_EQ(sim.events_executed(), 11u);
  EXPECT_EQ(link.stats().timers_armed, 1u);
  EXPECT_EQ(link.allocated_rate(), 100.0);
  sim.run();
  for (const auto& d : done) EXPECT_TRUE(d->triggered());
  EXPECT_EQ(link.stats().timers_superseded, 0u);
  EXPECT_EQ(link.stats().timers_armed, 10u);  // one per completion instant
  EXPECT_DOUBLE_EQ(sim.now(), 109.0);
}

// Cost pin: a same-timestamp burst of cap-bound joins costs at most two
// solves (the first join's and the flush's), whatever its size.  Every
// joiner has its own cap, so a solve per join would walk O(N) classes N
// times.
TEST(Bandwidth, SameTimestampBurstCostsAtMostTwoSolves) {
  for (const int n : {1, 2, 64, 512}) {
    des::Simulation sim;
    des::BandwidthLink link(sim, 1e6);
    (void)link.start_flow(10.0, 1.0);  // the head until t=10
    sim.run_until(0.5);
    const std::uint64_t before = link.stats().solves;
    sim.schedule(0.0, [&] {
      for (int i = 0; i < n; ++i)
        (void)link.start_flow(1e3, 1.0 + 1e-3 * static_cast<double>(i));
    });
    sim.run_until(0.75);
    EXPECT_LE(link.stats().solves - before, 2u) << n << " joins";
    EXPECT_EQ(link.active_flows(), static_cast<std::size_t>(n) + 1);
    EXPECT_EQ(link.fair_rate(), des::BandwidthLink::kUncapped);
    sim.run();
    EXPECT_EQ(link.active_flows(), 0u);
  }
}

// A sub-epsilon joiner completes at its own timestamp even when the armed
// timer is one ulp away, where its own instant would round onto the armed
// one: at t=1e9 one ulp is ~1.2e-7 s, and a 1e-5 B flow at 1e3 B/s needs
// 1e-8 s, so its timer is nudged to the next double.
TEST(Bandwidth, SubEpsilonJoinerBesideANudgedTimerCompletesAtItsJoin) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 1e6);
  std::shared_ptr<des::Event> head, tiny;
  sim.schedule(1e9, [&] {
    head = link.start_flow(1e-5, 1e3);
    // After the head's flush, which arms the nudged timer.
    sim.schedule(0.0, [&] { tiny = link.start_flow(1e-7, 1e3); });
  });
  sim.run_until(1e9);
  ASSERT_TRUE(head && tiny);
  EXPECT_TRUE(tiny->triggered());
  EXPECT_FALSE(head->triggered());
  sim.run();
  EXPECT_TRUE(head->triggered());
  EXPECT_EQ(sim.now(), std::nextafter(1e9, 2e9));
}

TEST(Bandwidth, NanCapacityIsRejectedAtConstruction) {
  des::Simulation sim;
  EXPECT_THROW(des::BandwidthLink(sim, std::nan("")), std::invalid_argument);
  EXPECT_THROW(des::BandwidthLink(sim, -1.0), std::invalid_argument);
}

TEST(Bandwidth, NanCapacityIsRejectedBySetCapacity) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  EXPECT_THROW(link.set_capacity(std::nan("")), std::invalid_argument);
  EXPECT_EQ(link.capacity(), 100.0);
}

TEST(Bandwidth, NanTransferSizeIsRejected) {
  des::Simulation sim;
  des::BandwidthLink link(sim, 100.0);
  EXPECT_THROW(
      (void)link.start_flow(std::nan(""), des::BandwidthLink::kUncapped),
      std::invalid_argument);
  EXPECT_THROW((void)link.start_flow(1.0, std::nan("")), std::invalid_argument);
  EXPECT_EQ(link.active_flows(), 0u);
}

// Property: random flow sets conserve bytes and never exceed capacity.
TEST(Bandwidth, PropertyConservationUnderRandomLoad) {
  lu::Rng rng(1234);
  des::Simulation sim;
  des::BandwidthLink link(sim, 1e6);
  std::vector<double> done;
  double total_bytes = 0.0;
  int flows = 0;
  auto spawner = [&](double at, double bytes, double cap) {
    total_bytes += bytes;
    ++flows;
    sim.schedule(at, [&, bytes, cap] {
      sim.spawn(do_transfer(sim, link, bytes, cap, done));
    });
  };
  for (int i = 0; i < 200; ++i) {
    const double cap = rng.chance(0.3) ? rng.uniform(1e3, 1e5)
                                       : des::BandwidthLink::kUncapped;
    spawner(rng.uniform(0.0, 50.0), rng.uniform(1.0, 1e7), cap);
  }
  sim.run();
  EXPECT_EQ(static_cast<int>(done.size()), flows);
  EXPECT_NEAR(link.bytes_moved(), total_bytes, 1.0);
  EXPECT_EQ(link.active_flows(), 0u);
}

// ------------------------------------------- determinism tie-break pins ----

// The calendar queue must preserve the kernel's determinism contract: among
// equal timestamps, events fire in schedule-sequence order.  This test
// interleaves same-time clusters with scattered timestamps so the events
// cross bucket windows, overflow spills and window rebuilds, and pins the
// exact global (time, sequence) order.
TEST(Simulation, SameTimeScheduleSequenceOrderUnderCalendarStress) {
  des::Simulation sim;
  struct Fired {
    double time;
    int stamp;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<double, int>> expected;
  int stamp = 0;
  // Three same-time clusters at 100, 2500 and 77777 interleaved with a
  // spread of unique times (deterministic pseudo-random walk).
  std::uint64_t x = 42;
  for (int round = 0; round < 400; ++round) {
    const double cluster = (round % 3 == 0) ? 100.0
                           : (round % 3 == 1) ? 2500.0
                                              : 77777.0;
    const int s1 = stamp++;
    sim.schedule(cluster, [&fired, &sim, s1] {
      fired.push_back({sim.now(), s1});
    });
    expected.emplace_back(cluster, s1);
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>((x >> 33) % 100000) * 0.5;
    const int s2 = stamp++;
    sim.schedule(t, [&fired, &sim, s2] {
      fired.push_back({sim.now(), s2});
    });
    expected.emplace_back(t, s2);
  }
  sim.run();
  // Expected order: stable sort by time (sequence = insertion order breaks
  // ties because std::stable_sort preserves it).
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_DOUBLE_EQ(fired[i].time, expected[i].first) << "at " << i;
    EXPECT_EQ(fired[i].stamp, expected[i].second) << "at " << i;
  }
}

// Events scheduled *during* a same-timestamp batch (zero delay from inside
// a callback) join the end of the batch and still fire in schedule order —
// the active-batch append path of the calendar queue.
TEST(Simulation, ZeroDelayFromInsideBatchAppendsInOrder) {
  des::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule(5.0, [&sim, &order, i] {
      order.push_back(i);
      sim.schedule(0.0, [&order, i] { order.push_back(10 + i); });
    });
  }
  sim.run();
  // The three scheduled events run first (0,1,2), then their zero-delay
  // children in the order the parents scheduled them (10,11,12).
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}
