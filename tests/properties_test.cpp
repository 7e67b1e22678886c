// Cross-module property and fault-injection tests: randomized sweeps over
// seeds and inputs asserting the system-level invariants DESIGN.md §5
// promises.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/db.hpp"
#include "core/merge.hpp"
#include "core/task_size_model.hpp"
#include "des/bandwidth.hpp"
#include "des/simulation.hpp"
#include "lobsim/engine.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace core = lobster::core;
namespace des = lobster::des;
namespace lobsim = lobster::lobsim;
namespace lu = lobster::util;

// Property: the task-size model's accounting identity holds across seeds,
// eviction regimes and task lengths.
class TaskSizeModelSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TaskSizeModelSweep, AccountingAndBounds) {
  const auto [seed, hours] = GetParam();
  core::TaskSizeModelParams p;
  p.num_tasklets = 3000;
  p.num_workers = 250;
  p.seed = static_cast<std::uint64_t>(seed);
  const core::ConstantEviction eviction(0.2);
  const auto r = core::simulate_task_size(p, eviction, hours);
  EXPECT_NEAR(r.total_time, r.effective_time + r.overhead_time + r.lost_time,
              1e-6);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LT(r.efficiency, 1.0);
  // All tasklets were processed exactly once: the effective time per
  // tasklet averages near the distribution mean.
  EXPECT_NEAR(r.effective_time / static_cast<double>(p.num_tasklets),
              p.tasklet_mean, 0.15 * p.tasklet_mean);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLengths, TaskSizeModelSweep,
    ::testing::Combine(::testing::Values(1, 7, 42, 1337),
                       ::testing::Values(0.5, 1.0, 4.0)));

// Property: merge planning conserves outputs for random size sets.
TEST(Properties, MergePlanningConservesForRandomSizes) {
  lu::Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    std::vector<core::OutputRecord> outputs(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      auto& o = outputs[static_cast<std::size_t>(i)];
      o.output_id = static_cast<std::uint64_t>(i + 1);
      o.bytes = rng.uniform(1e6, 5e9);
      total += o.bytes;
    }
    core::MergePolicy policy;
    policy.target_bytes = rng.uniform(1e9, 8e9);
    const auto groups = core::plan_merges(outputs, policy, false, 0);
    double grouped = 0.0;
    std::set<std::uint64_t> seen;
    for (const auto& g : groups) {
      grouped += g.total_bytes;
      for (auto id : g.output_ids)
        EXPECT_TRUE(seen.insert(id).second) << "output grouped twice";
    }
    EXPECT_NEAR(grouped, total, 1.0) << "merging must conserve bytes";
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  }
}

// Property: bandwidth-link allocation never exceeds capacity at any
// sampled instant, across random capacity changes.
TEST(Properties, LinkAllocationBoundedUnderCapacityChurn) {
  lu::Rng rng(99);
  des::Simulation sim;
  des::BandwidthLink link(sim, 1e6);
  double current_capacity = 1e6;
  bool ok = true;
  auto spawn_flow = [&](double bytes) {
    struct Runner {
      static des::Process go(des::BandwidthLink& l, double b) {
        co_await l.transfer(b);
      }
    };
    sim.spawn(Runner::go(link, bytes));
  };
  for (int i = 0; i < 100; ++i)
    sim.schedule(rng.uniform(0.0, 50.0),
                 [&, b = rng.uniform(1e4, 1e7)] { spawn_flow(b); });
  for (int i = 0; i < 20; ++i) {
    sim.schedule(rng.uniform(0.0, 60.0), [&, c = rng.uniform(1e5, 2e6)] {
      current_capacity = c;
      link.set_capacity(c);
    });
  }
  for (double t = 0.5; t < 80.0; t += 0.5) {
    sim.schedule(t, [&] {
      ok = ok && link.allocated_rate() <= current_capacity * (1.0 + 1e-9);
    });
  }
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(link.active_flows(), 0u) << "all flows must eventually drain";
}

// Property: the link conserves bytes — after every flow drains,
// bytes_moved() equals exactly the sum of what was injected, no matter how
// capacity churned (including full outages) while flows were in flight.
TEST(Properties, LinkConservesBytesMovedUnderChurn) {
  lu::Rng rng(777);
  des::Simulation sim;
  des::BandwidthLink link(sim, 2e6);
  double injected = 0.0;
  auto spawn_flow = [&](double bytes, double cap) {
    struct Runner {
      static des::Process go(des::BandwidthLink& l, double b, double c) {
        co_await l.transfer(b, c);
      }
    };
    injected += bytes;
    sim.spawn(Runner::go(link, bytes, cap));
  };
  for (int i = 0; i < 200; ++i) {
    const double cap = rng.chance(0.3) ? des::BandwidthLink::kUncapped
                                       : rng.uniform(1e4, 1e6);
    sim.schedule(rng.uniform(0.0, 50.0),
                 [&, b = rng.uniform(1e4, 1e7), cap] { spawn_flow(b, cap); });
  }
  // Capacity churn, including a hard outage window; restore at the end so
  // everything can drain.
  for (int i = 0; i < 15; ++i)
    sim.schedule(rng.uniform(0.0, 60.0),
                 [&, c = rng.uniform(1e5, 4e6)] { link.set_capacity(c); });
  sim.schedule(20.0, [&] { link.set_capacity(0.0); });
  sim.schedule(25.0, [&] { link.set_capacity(2e6); });
  sim.schedule(70.0, [&] { link.set_capacity(2e6); });
  // bytes_moved() must be monotone along the way.
  double last_moved = 0.0;
  bool monotone = true;
  for (double t = 1.0; t < 70.0; t += 1.0) {
    sim.schedule(t, [&] {
      const double m = link.bytes_moved();
      monotone = monotone && m >= last_moved;
      last_moved = m;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(link.active_flows(), 0u);
  EXPECT_NEAR(link.bytes_moved(), injected, 1e-6 * injected);
}

// Property: the allocation is max-min optimal at every sampled instant —
// each flow gets exactly min(cap, fair share), and whenever any flow is
// held below its cap the link is fully utilized (nobody could be given
// more without taking from someone else).
TEST(Properties, LinkAllocationIsMaxMinOptimal) {
  lu::Rng rng(1234);
  des::Simulation sim;
  des::BandwidthLink link(sim, 1.5e6);
  auto spawn_flow = [&](double bytes, double cap) {
    struct Runner {
      static des::Process go(des::BandwidthLink& l, double b, double c) {
        co_await l.transfer(b, c);
      }
    };
    sim.spawn(Runner::go(link, bytes, cap));
  };
  for (int i = 0; i < 150; ++i) {
    const double cap = rng.chance(0.4) ? des::BandwidthLink::kUncapped
                                       : rng.uniform(5e3, 8e5);
    sim.schedule(rng.uniform(0.0, 40.0),
                 [&, b = rng.uniform(1e5, 8e6), cap] { spawn_flow(b, cap); });
  }
  for (int i = 0; i < 10; ++i)
    sim.schedule(rng.uniform(0.0, 50.0),
                 [&, c = rng.uniform(2e5, 3e6)] { link.set_capacity(c); });
  int violations = 0;
  for (double t = 0.25; t < 60.0; t += 0.25) {
    sim.schedule(t, [&] {
      const double fair = link.fair_rate();
      bool any_below_cap = false;
      link.for_each_flow([&](std::uint64_t, double, double, double cap,
                             double rate) {
        if (rate != std::min(cap, fair)) ++violations;
        if (rate < cap) any_below_cap = true;
      });
      if (link.allocated_rate() > link.capacity() * (1.0 + 1e-9)) ++violations;
      // Pareto condition: someone is throttled below their cap only when
      // the capacity is fully handed out.
      if (any_below_cap &&
          link.allocated_rate() < link.capacity() * (1.0 - 1e-9))
        ++violations;
    });
  }
  sim.run();
  EXPECT_EQ(violations, 0);
}

// Regression for the solver precision trap: 1e5 flows whose caps are equal
// to within 1e-9 sum to just past the link capacity, putting the cap-bound
// boundary at the very tail of the ascending-cap walk where a plain sum
// can overshoot the capacity and drive the fair share negative — stalling
// every uncapped flow.  The long double class sum plus the residual clamp
// keep the share non-negative and the link fully utilized.
TEST(Properties, NearEqualCapsAtScaleDoNotStallFairShare) {
  lu::Rng rng(4242);
  des::Simulation sim;
  des::BandwidthLink link(sim, 1e5);
  struct Runner {
    static des::Process go(des::BandwidthLink& l, double b, double c) {
      co_await l.transfer(b, c);
    }
  };
  // All joins land at t=0: one batched solve, not 1e5.
  for (int i = 0; i < 100000; ++i)
    sim.spawn(Runner::go(link, 1e9, 1.0 + 1e-9 * rng.uniform()));
  // One uncapped flow rides the residual — the victim of the old trap.
  sim.spawn(Runner::go(link, 1e9, des::BandwidthLink::kUncapped));
  bool probed = false;
  sim.schedule(1.0, [&] {
    probed = true;
    EXPECT_EQ(link.active_flows(), 100001u);
    EXPECT_GE(link.fair_rate(), 0.0) << "fair share must never go negative";
    EXPECT_LE(link.allocated_rate(), link.capacity() * (1.0 + 1e-9));
    link.for_each_flow(
        [&](std::uint64_t, double, double, double, double rate) {
          EXPECT_GE(rate, 0.0);
        });
  });
  // bytes_moved() integrates up to now(), between the link's events too.
  double moved_at_9 = 0.0;
  sim.schedule(9.0, [&] { moved_at_9 = link.bytes_moved(); });
  sim.run_until(10.0);
  EXPECT_TRUE(probed);
  // No stall: the link ran flat out the whole window.
  EXPECT_NEAR(moved_at_9, 1e5 * 9.0, 0.01 * 1e5 * 9.0);
}

// Fault injection: a corrupted journal is rejected, not misread.
TEST(Properties, CorruptJournalRejected) {
  const std::string path = ::testing::TempDir() + "corrupt.jsonl";
  // An unknown type; records that lost their keys (the tasklet crashed
  // the reader, the task read as one submitted task); a non-numeric id; a
  // line cut short inside its last value ("task":123 read as 12).
  for (const char* line :
       {"{\"type\":\"gibberish\",\"id\":1}\n", "{\"type\":\"tasklet\"}\n",
        "{\"type\":\"task\",\"id\":1}\n",
        "{\"type\":\"output\",\"id\":x1,\"task\":1,\"path\":\"p\","
        "\"bytes\":1,\"merged\":false}\n",
        "{\"type\":\"tasklet\",\"id\":1,\"lfn\":\"f\",\"events\":1,\"bytes\":1,"
        "\"out_bytes\":1,\"run\":1,\"lumi0\":1,\"lumi1\":1,\"status\":0,"
        "\"attempts\":0,\"task\":12\n"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(line, f);
    std::fclose(f);
    EXPECT_THROW(core::Db::load_journal(path), std::runtime_error) << line;
  }
  std::remove(path.c_str());
  EXPECT_THROW(core::Db::load_journal("/nonexistent/journal.jsonl"),
               std::runtime_error);
}

// Fault injection: config parser survives random byte soup (either parses
// or throws; never crashes or hangs).
TEST(Properties, ConfigParserFuzz) {
  lu::Rng rng(2718);
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup;
    const int len = static_cast<int>(rng.uniform_int(0, 400));
    for (int i = 0; i < len; ++i) {
      const char alphabet[] = "[]=#;\"\n abc123_./-";
      soup += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
    }
    try {
      const auto cfg = lu::Config::parse(soup);
      (void)cfg.sections();
    } catch (const std::runtime_error&) {
      // fine: rejected with a diagnostic
    }
  }
  SUCCEED();
}

// Property: whatever the availability climate does to the workers, the
// engine conserves the workload — every tasklet is processed, nothing is
// lost or duplicated, and every unmerged output ends up merged exactly once
// (the dispatch pool and the merge planner both drain).
class AvailabilityConservationSweep
    : public ::testing::TestWithParam<
          std::tuple<lobsim::AvailabilityKind, int>> {};

TEST_P(AvailabilityConservationSweep, WorkloadConservedUnderEvictions) {
  const auto [kind, seed] = GetParam();

  lobsim::ClusterParams cluster;
  cluster.target_cores = 64;
  cluster.cores_per_worker = 8;
  cluster.ramp_seconds = 60.0;
  cluster.evictions = true;
  cluster.availability.kind = kind;
  // Harsh settings so the climates actually bite at this small scale.
  cluster.availability.scale_hours = 2.0;
  cluster.availability.burst_period_hours = 1.0;
  cluster.availability.diurnal_amplitude = 0.8;
  if (kind == lobsim::AvailabilityKind::Trace) {
    cluster.availability.trace =
        std::make_shared<const std::vector<double>>(
            core::synthesize_availability_log(
                5000, lu::Rng(7).stream("prop-trace"), 0.8, 2.0));
  }

  lobsim::WorkloadParams workload;
  workload.num_tasklets = 300;
  workload.tasklets_per_task = 6;
  workload.tasklet_cpu_mean = 600.0;
  workload.tasklet_cpu_sigma = 120.0;
  workload.merge_mode = core::MergeMode::Interleaved;

  lobsim::Engine engine(cluster, workload,
                        static_cast<std::uint64_t>(seed));

  // Ride along: the campus uplink's max-min invariants must hold at every
  // probe instant, whatever the climate does (evictions, retries, outage
  // churn all hit the link through dispatch bursts).
  int net_violations = 0;
  auto& uplink = engine.federation().uplink();
  for (double t = 300.0; t < 4.0 * 3600.0; t += 300.0) {
    engine.sim().schedule(t, [&] {
      const double fair = uplink.fair_rate();
      bool any_below_cap = false;
      uplink.for_each_flow([&](std::uint64_t, double, double, double cap,
                               double rate) {
        if (rate != std::min(cap, fair)) ++net_violations;
        if (rate < cap) any_below_cap = true;
      });
      if (uplink.allocated_rate() > uplink.capacity() * (1.0 + 1e-9))
        ++net_violations;
      if (any_below_cap &&
          uplink.allocated_rate() < uplink.capacity() * (1.0 - 1e-9))
        ++net_violations;
    });
  }

  const auto& m = engine.run(10.0 * 86400.0);
  EXPECT_EQ(net_violations, 0);

  // No tasklet lost or duplicated.
  EXPECT_EQ(m.tasklets_processed, workload.num_tasklets);
  EXPECT_EQ(engine.dispatch_policy().tasklets_pending(), 0u);
  std::uint64_t per_site_total = 0;
  for (auto n : engine.per_site_tasklets()) per_site_total += n;
  EXPECT_EQ(per_site_total, workload.num_tasklets);

  // Every unmerged output was merged exactly once: the planner holds no
  // unplanned outputs and the dispatch queue holds no unrun merge tasks.
  EXPECT_TRUE(engine.merge_planner().drained());
  EXPECT_EQ(engine.dispatch_policy().merge_backlog(), 0u);
  EXPECT_GT(m.merge_tasks_completed, 0u);

  // Retry accounting is consistent with the failure counters: wasted
  // dispatches happen iff some task was evicted or failed.
  if (m.tasks_evicted + m.tasks_failed == 0) {
    EXPECT_EQ(m.tasklets_retried, 0u);
  }
  if (m.tasklets_retried > 0) {
    EXPECT_GT(m.tasks_evicted + m.tasks_failed, 0u);
  }
  EXPECT_GT(m.makespan, 0.0);
}

std::string climate_param_name(
    const ::testing::TestParamInfo<std::tuple<lobsim::AvailabilityKind, int>>&
        info) {
  std::string name = lobsim::to_string(std::get<0>(info.param));
  for (auto& c : name)
    if (c == '-') c = '_';
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllClimates, AvailabilityConservationSweep,
    ::testing::Combine(
        ::testing::Values(lobsim::AvailabilityKind::Weibull,
                          lobsim::AvailabilityKind::Trace,
                          lobsim::AvailabilityKind::Diurnal,
                          lobsim::AvailabilityKind::AdversarialBurst),
        ::testing::Values(2015, 99)),
    climate_param_name);

// Property: DB tasklet ledger is conserved through arbitrary interleavings
// of create/finish(success|evict)/merge operations.
TEST(Properties, DbLedgerConservedUnderRandomOps) {
  lu::Rng rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    core::Db db;
    const std::size_t n = 40;
    std::vector<core::Tasklet> tasklets(n);
    for (std::size_t i = 0; i < n; ++i) tasklets[i].id = i + 1;
    db.register_tasklets(tasklets);
    std::vector<std::uint64_t> open_tasks;
    for (int op = 0; op < 200; ++op) {
      if (!open_tasks.empty() && rng.chance(0.5)) {
        // finish a random open task
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(open_tasks.size()) - 1));
        const auto id = open_tasks[k];
        open_tasks.erase(open_tasks.begin() + static_cast<long>(k));
        core::TaskRecord rec;
        rec.status = rng.chance(0.3) ? core::TaskStatus::Evicted
                                     : core::TaskStatus::Done;
        db.finish_task(id, rec);
        if (rec.status == core::TaskStatus::Done)
          db.record_output(id, "out", 1e6);
      } else {
        const auto pending = db.pending_tasklets(
            static_cast<std::size_t>(rng.uniform_int(1, 5)));
        if (pending.empty()) continue;
        open_tasks.push_back(
            db.create_task(core::TaskKind::Analysis, pending, 0.0));
      }
    }
    // Ledger: every tasklet is in exactly one state and the counts add up.
    std::size_t total = 0;
    for (const auto& [status, count] : db.tasklet_status_counts())
      total += count;
    EXPECT_EQ(total, n);
  }
}
