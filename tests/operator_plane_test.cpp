// Operator-plane tests: trace-diff attribution arithmetic, windowed
// counter-plane helpers (snapshot_delta, EwmaRate), the online Advisor's
// trigger/ladder edge cases, and campaign determinism with the advisor on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/trace_diff.hpp"
#include "lobsim/advisor.hpp"
#include "lobsim/campaign.hpp"
#include "util/trace.hpp"

namespace lobster::lobsim {
namespace {

using core::Segment;
using core::TaskRecord;
using core::TaskStatus;

double& seg(TaskRecord& rec, Segment s) {
  return rec.segment_time[static_cast<std::size_t>(s)];
}

TaskRecord done_record(std::uint64_t id, double env_setup, double execute,
                       double finish, std::size_t tasklets) {
  TaskRecord rec;
  rec.task_id = id;
  rec.status = TaskStatus::Done;
  rec.tasklets.resize(tasklets);
  rec.finish_time = finish;
  seg(rec, Segment::EnvSetup) = env_setup;
  seg(rec, Segment::Execute) = execute;
  rec.cpu_time = execute;
  return rec;
}

TaskRecord failed_record(std::uint64_t id, double env_setup, double finish) {
  TaskRecord rec;
  rec.task_id = id;
  rec.status = TaskStatus::Failed;
  rec.exit_code = 174;
  rec.finish_time = finish;
  seg(rec, Segment::EnvSetup) = env_setup;
  return rec;
}

// ---------------------------------------------------------------------------
// Trace-diff attribution
// ---------------------------------------------------------------------------

TEST(TraceDiff, AttributesSegmentsOfSuccessfulTasksAndWallOfFailedOnes) {
  std::vector<TaskRecord> run;
  run.push_back(done_record(1, 100.0, 50.0, 200.0, 2));
  run.push_back(failed_record(2, 60.0, 300.0));

  const core::RunAttribution a = core::attribute_records(run, "a");
  EXPECT_EQ(a.tasks, 2u);
  EXPECT_EQ(a.failures, 1u);
  EXPECT_EQ(a.tasklets_processed, 2u);  // failed task's tasklets don't count
  EXPECT_EQ(a.makespan, 300.0);
  EXPECT_EQ(a.goodput, 2.0 / (300.0 / 3600.0));
  // The successful task's env_setup lands in its segment bucket; every
  // second of the failed task's wall lands in "failed", none in env_setup.
  EXPECT_EQ(a.bucket_seconds[static_cast<std::size_t>(Segment::EnvSetup)],
            100.0);
  EXPECT_EQ(a.bucket_seconds[core::kBucketFailed], 60.0);
}

TEST(TraceDiff, TopMoverCarriesSignAndShareOfDelta) {
  std::vector<TaskRecord> before;
  before.push_back(done_record(1, 100.0, 50.0, 200.0, 2));
  before.push_back(failed_record(2, 60.0, 300.0));
  std::vector<TaskRecord> after;
  after.push_back(done_record(1, 10.0, 50.0, 110.0, 2));
  after.push_back(done_record(2, 10.0, 50.0, 150.0, 1));

  const core::TraceDiff diff =
      core::diff_task_records(before, after, "before", "after");
  // env_setup moved 100 -> 20 (-80), failed 60 -> 0 (-60), execute +50.
  ASSERT_FALSE(diff.movers.empty());
  EXPECT_EQ(diff.movers[0].bucket, "env_setup");
  EXPECT_EQ(diff.movers[0].delta, -80.0);
  EXPECT_EQ(diff.movers[0].share, 80.0 / (80.0 + 60.0 + 50.0));
  EXPECT_EQ(diff.movers[1].bucket, "failed");
  EXPECT_EQ(diff.movers[1].delta, -60.0);
  EXPECT_EQ(diff.makespan_delta, 150.0 - 300.0);
}

TEST(TraceDiff, HistogramsShareEdgesAcrossRuns) {
  std::vector<TaskRecord> before;
  before.push_back(done_record(1, 100.0, 0.0, 100.0, 1));
  std::vector<TaskRecord> after;
  after.push_back(done_record(1, 10.0, 0.0, 10.0, 1));

  const core::TraceDiff diff =
      core::diff_task_records(before, after, "b", "a", 10);
  const auto* env = [&]() -> const core::BucketHistograms* {
    for (const auto& h : diff.histograms)
      if (h.bucket == "env_setup") return &h;
    return nullptr;
  }();
  ASSERT_NE(env, nullptr);
  // One shared range spanning both runs' observations: the same bin edges
  // on both sides, so bins are comparable one-to-one.
  ASSERT_EQ(env->before.nbins(), env->after.nbins());
  EXPECT_EQ(env->before.bin_lo(0), env->after.bin_lo(0));
  EXPECT_EQ(env->before.bin_hi(env->before.nbins() - 1),
            env->after.bin_hi(env->after.nbins() - 1));
  EXPECT_EQ(env->before.entries(), 1u);
  EXPECT_EQ(env->after.entries(), 1u);
}

// ---------------------------------------------------------------------------
// Windowed counter plane
// ---------------------------------------------------------------------------

TEST(CounterPlane, SnapshotDeltaDiffsByNameAndKeepsNewNames) {
  util::CounterRegistry reg;
  reg.counter("a.events").add(3);
  reg.gauge("b.bytes").add(100.0);
  const auto before = reg.snapshot();

  reg.counter("a.events").add(4);
  reg.gauge("b.bytes").add(50.0);
  reg.counter("c.late").add(7);  // registered after the baseline snapshot
  const auto after = reg.snapshot();

  const auto delta = util::CounterRegistry::snapshot_delta(before, after);
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta[0].name, "a.events");
  EXPECT_EQ(delta[0].value, 4.0);
  EXPECT_EQ(delta[1].name, "b.bytes");
  EXPECT_EQ(delta[1].value, 50.0);
  EXPECT_TRUE(delta[1].is_gauge);
  // A name born inside the window reports its full value as the delta.
  EXPECT_EQ(delta[2].name, "c.late");
  EXPECT_EQ(delta[2].value, 7.0);
}

TEST(CounterPlane, EwmaRatePrimesThenConverges) {
  util::EwmaRate ewma(600.0);
  EXPECT_EQ(ewma.update(0.0, 0.0), 0.0);  // priming tick: no rate yet

  // Constant 2 events/s observed every 300 s: the level approaches 2 with
  // alpha = 1 - exp(-300/600) per step.
  const double alpha = 1.0 - std::exp(-300.0 / 600.0);
  double expected = 0.0;
  double total = 0.0;
  for (int i = 1; i <= 5; ++i) {
    total += 600.0;  // 2 events/s * 300 s
    const double rate = ewma.update(300.0 * i, total);
    expected += alpha * (2.0 - expected);
    EXPECT_EQ(rate, expected);
  }
  // After five steps the residual is exactly 2 * (1 - alpha)^5.
  EXPECT_NEAR(ewma.rate(), 2.0, 2.02 * std::pow(1.0 - alpha, 5.0));

  // A same-instant resample keeps the level instead of dividing by zero.
  EXPECT_EQ(ewma.update(1500.0, total + 100.0), ewma.rate());
}

// ---------------------------------------------------------------------------
// Advisor edge cases
// ---------------------------------------------------------------------------

struct RecordingActions : AdvisorActions {
  std::uint32_t cap = 0;
  std::vector<std::pair<std::size_t, double>> shares;
  void set_task_size_cap(std::uint32_t c) override { cap = c; }
  void set_dispatch_share(std::size_t site, double share) override {
    shares.emplace_back(site, share);
  }
};

AdvisorConfig test_config() {
  AdvisorConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(Advisor, QuietWindowTakesNoAction) {
  Advisor advisor(test_config(), 6, 2);
  core::Monitor monitor;
  monitor.on_task_finished(done_record(1, 1.0, 99.0, 100.0, 6));
  RecordingActions actions;
  const auto decisions = advisor.tick(300.0, monitor, {}, actions);
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(advisor.dispatch_share(), 1.0);
  EXPECT_TRUE(actions.shares.empty());
}

TEST(Advisor, SetupTimeWindowThrottlesEverySite) {
  Advisor advisor(test_config(), 6, 2);
  core::Monitor monitor;
  // other/total = 30/100: past the 0.15 setup threshold.
  monitor.on_task_finished(done_record(1, 30.0, 70.0, 100.0, 6));
  RecordingActions actions;
  const auto decisions = advisor.tick(300.0, monitor, {}, actions);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Throttle);
  EXPECT_EQ(decisions[0].rule, core::DiagnosisRule::SetupTime);
  EXPECT_EQ(decisions[0].value, advisor.config().throttle_share);
  const std::vector<std::pair<std::size_t, double>> want = {
      {0, advisor.config().throttle_share},
      {1, advisor.config().throttle_share}};
  EXPECT_EQ(actions.shares, want);
}

TEST(Advisor, SevereFailureBurstDrainsMildOneProbes) {
  {  // hard-failed wall at 60 % of the window: severity 1 -> drain.
    Advisor advisor(test_config(), 6, 1);
    core::Monitor monitor;
    monitor.on_task_finished(done_record(1, 0.0, 40.0, 100.0, 6));
    monitor.on_task_finished(failed_record(2, 60.0, 100.0));
    RecordingActions actions;
    const auto decisions = advisor.tick(300.0, monitor, {}, actions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Drain);
    EXPECT_EQ(advisor.dispatch_share(), 0.0);
  }
  {  // 25 % of the window: past threshold but below 2x -> probe trickle.
    Advisor advisor(test_config(), 6, 1);
    core::Monitor monitor;
    monitor.on_task_finished(done_record(1, 0.0, 75.0, 100.0, 6));
    monitor.on_task_finished(failed_record(2, 25.0, 100.0));
    RecordingActions actions;
    const auto decisions = advisor.tick(300.0, monitor, {}, actions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Throttle);
    EXPECT_EQ(advisor.dispatch_share(), advisor.config().probe_share);
  }
}

TEST(Advisor, EvictionWallIsNotAFailureBurst) {
  Advisor advisor(test_config(), 6, 1);
  core::Monitor monitor;
  monitor.on_task_finished(done_record(1, 0.0, 40.0, 100.0, 6));
  TaskRecord evicted = failed_record(2, 60.0, 100.0);
  evicted.status = TaskStatus::Evicted;
  evicted.exit_code = 0;
  monitor.on_task_finished(evicted);
  RecordingActions actions;
  const auto decisions = advisor.tick(300.0, monitor, {}, actions);
  // Routine opportunistic evictions must not read as an outage.
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(advisor.dispatch_share(), 1.0);
}

TEST(Advisor, ShrinkHalvesTaskSizeAndStopsAtTheFloor) {
  AdvisorConfig cfg = test_config();
  cfg.min_task_size = 2;
  Advisor advisor(cfg, 8, 1);
  RecordingActions actions;
  auto lost_window = [&](double tick_end, core::Monitor& monitor,
                         std::uint64_t id) {
    TaskRecord rec = done_record(id, 0.0, 70.0, tick_end, 6);
    rec.lost_time = 30.0;  // lost/total = 30/100 > 0.10
    monitor.on_task_finished(rec);
  };
  core::Monitor monitor;
  lost_window(300.0, monitor, 1);
  auto d1 = advisor.tick(300.0, monitor, {}, actions);
  ASSERT_FALSE(d1.empty());
  EXPECT_EQ(d1[0].kind, AdvisorDecision::Kind::Shrink);
  EXPECT_EQ(advisor.task_size_cap(), 4u);
  lost_window(600.0, monitor, 2);
  advisor.tick(600.0, monitor, {}, actions);
  EXPECT_EQ(advisor.task_size_cap(), 2u);  // floored at min_task_size
  lost_window(900.0, monitor, 3);
  const auto d3 = advisor.tick(900.0, monitor, {}, actions);
  for (const auto& d : d3)
    EXPECT_NE(d.kind, AdvisorDecision::Kind::Shrink);  // already at the floor
  EXPECT_EQ(advisor.task_size_cap(), 2u);
  EXPECT_EQ(actions.cap, 2u);
}

TEST(Advisor, ProxyWasteRateThrottlesWithoutCompletionEvidence) {
  Advisor advisor(test_config(), 6, 1);
  core::Monitor monitor;  // no finished task at all: completions lag
  RecordingActions actions;
  AdvisorGauges gauges;
  gauges.proxy_bytes_served = 100e9;
  gauges.proxy_bytes_thrashed = 10e9;  // 10 % waste > 5 % threshold
  const auto decisions = advisor.tick(300.0, monitor, gauges, actions);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Throttle);
  EXPECT_EQ(decisions[0].rule, core::DiagnosisRule::SetupTime);
  EXPECT_EQ(decisions[0].severity, 1.0);  // (0.10 - 0.05) / 0.05, capped
  EXPECT_EQ(advisor.proxy_waste_frac(), 0.1);
  EXPECT_EQ(advisor.dispatch_share(), advisor.config().throttle_share);
}

TEST(Advisor, ProxyWasteExactlyAtThresholdDoesNotFire) {
  Advisor advisor(test_config(), 6, 1);
  core::Monitor monitor;
  RecordingActions actions;
  AdvisorGauges gauges;
  gauges.proxy_bytes_served = 100.0;
  gauges.proxy_bytes_thrashed = 5.0;  // exactly the 0.05 threshold: strict >
  const auto decisions = advisor.tick(300.0, monitor, gauges, actions);
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(advisor.dispatch_share(), 1.0);
}

TEST(Advisor, RestoreClimbsAdditivelyOnceTheWasteStops) {
  Advisor advisor(test_config(), 6, 1);
  const AdvisorConfig& cfg = advisor.config();
  core::Monitor monitor;
  RecordingActions actions;
  AdvisorGauges hot;
  hot.proxy_bytes_served = 100.0;
  hot.proxy_bytes_thrashed = 50.0;
  advisor.tick(300.0, monitor, hot, actions);
  ASSERT_EQ(advisor.dispatch_share(), cfg.throttle_share);

  // Waste gone: each clean tick climbs one restore_step, not a full jump —
  // a jump would re-admit the whole deferred cohort at once.
  double share = cfg.throttle_share;
  int restores = 0;
  while (advisor.dispatch_share() < 1.0 && restores < 10) {
    const auto decisions = advisor.tick(600.0 + 300.0 * restores, monitor, {},
                                        actions);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Restore);
    share = std::min(1.0, share + cfg.restore_step);
    EXPECT_EQ(advisor.dispatch_share(), share);
    ++restores;
  }
  EXPECT_EQ(advisor.dispatch_share(), 1.0);
  EXPECT_EQ(restores, 3);  // 0.30 -> 0.55 -> 0.80 -> 1.0
}

TEST(Advisor, StillFiringCompletionRuleHoldsTheLadderDown) {
  Advisor advisor(test_config(), 6, 1);
  core::Monitor monitor;
  RecordingActions actions;
  AdvisorGauges hot;
  hot.proxy_bytes_served = 100.0;
  hot.proxy_bytes_thrashed = 50.0;
  advisor.tick(300.0, monitor, hot, actions);

  // Proxy waste is gone but the completion window is setup-heavy: the
  // ladder may not climb past what the still-firing rule demands.
  monitor.on_task_finished(done_record(1, 30.0, 70.0, 550.0, 6));
  const auto decisions = advisor.tick(600.0, monitor, {}, actions);
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(advisor.dispatch_share(), advisor.config().throttle_share);

  // Next window is clean on both planes: the climb resumes.
  monitor.on_task_finished(done_record(2, 1.0, 99.0, 850.0, 6));
  const auto d2 = advisor.tick(900.0, monitor, {}, actions);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].kind, AdvisorDecision::Kind::Restore);
}

TEST(Advisor, EmptyWindowCountsAsCleanForRecovery) {
  Advisor advisor(test_config(), 6, 1);
  core::Monitor monitor;
  RecordingActions actions;
  // Throttle on a setup-heavy completion window.
  monitor.on_task_finished(done_record(1, 30.0, 70.0, 250.0, 6));
  advisor.tick(300.0, monitor, {}, actions);
  ASSERT_EQ(advisor.dispatch_share(), advisor.config().throttle_share);
  // No task lands in the next window: that is no evidence the symptom
  // persists, and a throttled site may need longer than a period to land
  // anything — the ladder climbs.
  const auto decisions = advisor.tick(600.0, monitor, {}, actions);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AdvisorDecision::Kind::Restore);
}

// ---------------------------------------------------------------------------
// Campaign determinism with the advisor on
// ---------------------------------------------------------------------------

RunSpec advisor_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.label = "advisor-on";
  spec.seed = seed;
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.cluster.squid.connect_timeout = 600.0;
  spec.workload.num_tasklets = 300;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  spec.advisor.enabled = true;
  spec.advisor.period = 300.0;
  return spec;
}

TEST(OperatorPlane, AdvisorOnCampaignSerialVsParallelBitwise) {
  std::vector<std::uint64_t> seeds = {2015, 2016, 2017, 2018};
  Campaign serial(1);
  Campaign parallel(4);
  for (std::uint64_t s : seeds) {
    serial.add(advisor_spec(s));
    parallel.add(advisor_spec(s));
  }
  const auto& a = serial.run();
  const auto& b = parallel.run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << a[i].error;
    ASSERT_TRUE(b[i].ok()) << b[i].error;
    // Bitwise determinism: the advisor's decisions are a pure function of
    // the counter plane and simulated time, so thread scheduling must not
    // leak into them.
    EXPECT_EQ(a[i].stats, b[i].stats);
  }
}

}  // namespace
}  // namespace lobster::lobsim
