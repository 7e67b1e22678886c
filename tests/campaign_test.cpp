// Tests for the lobsim::Campaign parallel run harness: per-run determinism,
// parallel == serial aggregation, seed sweep bookkeeping, error isolation,
// the shared --seeds/--jobs flag parser and the INI scenario parser.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "lobsim/spec_config.hpp"
#include "util/config.hpp"
#include "util/units.hpp"

namespace lobster::lobsim {
namespace {

RunSpec small_spec(std::uint64_t seed = 2015) {
  RunSpec spec;
  spec.label = "small";
  spec.seed = seed;
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 300;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  return spec;
}

TEST(CampaignTest, SameSeedTwiceIsBitwiseIdentical) {
  std::shared_ptr<const EngineMetrics> m1, m2;
  const RunStats a = Campaign::execute(small_spec(), &m1);
  const RunStats b = Campaign::execute(small_spec(), &m2);
  // Every scalar, compared exactly: determinism means bitwise equality,
  // not tolerance.
  EXPECT_EQ(a, b);
  ASSERT_TRUE(m1 && m2);
  // Full timeline equality, bin by bin.
  ASSERT_EQ(m1->analysis_done.nbins(), m2->analysis_done.nbins());
  for (std::size_t i = 0; i < m1->analysis_done.nbins(); ++i) {
    EXPECT_EQ(m1->analysis_done.sum(i), m2->analysis_done.sum(i));
    EXPECT_EQ(m1->merge_done.sum(i), m2->merge_done.sum(i));
  }
  EXPECT_EQ(m1->failure_events, m2->failure_events);
}

TEST(CampaignTest, DifferentSeedsDiffer) {
  const RunStats a = Campaign::execute(small_spec(2015));
  const RunStats b = Campaign::execute(small_spec(2016));
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(CampaignTest, ParallelAggregatesIdenticalToSerial) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 2015; s < 2023; ++s) seeds.push_back(s);  // 8 seeds

  Campaign serial(1);
  serial.add_seed_sweep(small_spec(), seeds);
  serial.run();

  Campaign parallel(4);
  parallel.add_seed_sweep(small_spec(), seeds);
  parallel.run();

  ASSERT_EQ(serial.results().size(), parallel.results().size());
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    const auto& rs = serial.results()[i];
    const auto& rp = parallel.results()[i];
    EXPECT_EQ(rs.seed, rp.seed);
    EXPECT_EQ(rs.label, rp.label);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rs.stats, rp.stats);
  }

  const auto as = serial.aggregate();
  const auto ap = parallel.aggregate();
  ASSERT_EQ(as.size(), 1u);
  ASSERT_EQ(ap.size(), 1u);
  EXPECT_EQ(as[0].runs, 8u);
  // Folding order is submission order in both cases, so the running stats
  // agree bitwise, not just within tolerance.
  EXPECT_EQ(as[0].makespan.mean(), ap[0].makespan.mean());
  EXPECT_EQ(as[0].makespan.stddev(), ap[0].makespan.stddev());
  EXPECT_EQ(as[0].makespan.min(), ap[0].makespan.min());
  EXPECT_EQ(as[0].makespan.max(), ap[0].makespan.max());
  EXPECT_EQ(as[0].tasks_evicted.mean(), ap[0].tasks_evicted.mean());
  EXPECT_EQ(as[0].merge_tasks.stddev(), ap[0].merge_tasks.stddev());
  EXPECT_EQ(as[0].bytes_streamed.mean(), ap[0].bytes_streamed.mean());
}

// Every availability climate must stay bitwise deterministic under thread
// parallelism: the same sweep with --jobs 1 and --jobs 4 yields identical
// per-run stats.  Trace replay shares one preloaded log across all runs,
// the way a campaign over a real HTCondor CSV would.
TEST(CampaignTest, AvailabilityModelsDeterministicAcrossJobs) {
  const auto trace_log = std::make_shared<const std::vector<double>>(
      core::synthesize_availability_log(
          5000, util::Rng(2015).stream("campaign-trace"), 0.8, 4.0));

  std::vector<RunSpec> specs;
  for (auto kind :
       {AvailabilityKind::Weibull, AvailabilityKind::Trace,
        AvailabilityKind::Diurnal, AvailabilityKind::AdversarialBurst}) {
    RunSpec spec = small_spec();
    spec.label = to_string(kind);
    spec.cluster.availability.kind = kind;
    spec.cluster.availability.burst_period_hours = 2.0;
    if (kind == AvailabilityKind::Trace)
      spec.cluster.availability.trace = trace_log;
    specs.push_back(spec);
  }

  Campaign serial(1);
  Campaign parallel(4);
  for (const auto& spec : specs) {
    serial.add_seed_sweep(spec, {2015, 2016});
    parallel.add_seed_sweep(spec, {2015, 2016});
  }
  serial.run();
  parallel.run();

  ASSERT_EQ(serial.results().size(), 8u);
  ASSERT_EQ(parallel.results().size(), 8u);
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    const auto& rs = serial.results()[i];
    const auto& rp = parallel.results()[i];
    SCOPED_TRACE(rs.label + "/" + std::to_string(rs.seed));
    ASSERT_TRUE(rs.ok()) << rs.error;
    ASSERT_TRUE(rp.ok()) << rp.error;
    EXPECT_EQ(rs.stats, rp.stats);
  }
  // The climates genuinely differ from one another under the same seed.
  const auto& weibull = serial.results()[0].stats;
  const auto& burst = serial.results()[6].stats;
  EXPECT_NE(weibull.makespan, burst.makespan);
}

// The lifetime dispatch policy queries the site's availability model on
// every pull; that must stay bitwise deterministic under thread
// parallelism, including under the burst climate it is designed for.
TEST(CampaignTest, LifetimeDispatchDeterministicAcrossJobs) {
  std::vector<RunSpec> specs;
  for (auto kind :
       {AvailabilityKind::Weibull, AvailabilityKind::AdversarialBurst}) {
    RunSpec spec = small_spec();
    spec.label = std::string("lifetime/") + to_string(kind);
    spec.cluster.availability.kind = kind;
    spec.cluster.availability.burst_period_hours = 2.0;
    spec.workload.dispatch = DispatchMode::Lifetime;
    specs.push_back(spec);
  }

  Campaign serial(1);
  Campaign parallel(4);
  serial.add_grid(specs, {2015, 2016});
  parallel.add_grid(specs, {2015, 2016});
  serial.run();
  parallel.run();

  ASSERT_EQ(serial.results().size(), 4u);
  ASSERT_EQ(parallel.results().size(), 4u);
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    const auto& rs = serial.results()[i];
    const auto& rp = parallel.results()[i];
    SCOPED_TRACE(rs.label + "/" + std::to_string(rs.seed));
    ASSERT_TRUE(rs.ok()) << rs.error;
    ASSERT_TRUE(rp.ok()) << rp.error;
    EXPECT_TRUE(rs.stats.completed);
    EXPECT_EQ(rs.stats, rp.stats);
  }
  // The policy genuinely differs from fifo under the same seed/climate.
  RunSpec fifo = small_spec();
  fifo.cluster.availability.kind = AvailabilityKind::AdversarialBurst;
  fifo.cluster.availability.burst_period_hours = 2.0;
  const RunStats f = Campaign::execute(fifo);
  EXPECT_NE(f.makespan, serial.results()[2].stats.makespan);
}

// Work stealing scans all per-site pools on every idle pull and charges a
// WAN penalty through shared bandwidth models; with heterogeneous sites and
// an adversarial-burst climate on one of them, the whole campaign must stay
// bitwise identical between --jobs 1 and --jobs 4 — including the steal
// counters themselves.
TEST(CampaignTest, StealingDispatchDeterministicAcrossJobs) {
  RunSpec spec = small_spec();
  spec.label = "stealing";
  spec.workload.num_tasklets = 600;
  spec.workload.dispatch = DispatchMode::Stealing;
  spec.workload.steal_min_backlog = 6;
  SiteParams bursty;
  bursty.name = "bursty";
  bursty.target_cores = 64;
  bursty.ramp_seconds = 60.0;
  bursty.availability.kind = AvailabilityKind::AdversarialBurst;
  bursty.availability.scale_hours = 2.0;
  bursty.availability.burst_period_hours = 1.0;
  bursty.availability.burst_fraction = 0.8;
  SiteParams calm;
  calm.name = "calm";
  calm.target_cores = 32;
  calm.ramp_seconds = 60.0;
  calm.evictions = false;
  spec.cluster.extra_sites = {bursty, calm};

  Campaign serial(1);
  Campaign parallel(4);
  serial.add_seed_sweep(spec, {2015, 2016, 2017});
  parallel.add_seed_sweep(spec, {2015, 2016, 2017});
  serial.run();
  parallel.run();

  ASSERT_EQ(serial.results().size(), 3u);
  ASSERT_EQ(parallel.results().size(), 3u);
  bool stole = false;
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    const auto& rs = serial.results()[i];
    const auto& rp = parallel.results()[i];
    SCOPED_TRACE(rs.label + "/" + std::to_string(rs.seed));
    ASSERT_TRUE(rs.ok()) << rs.error;
    ASSERT_TRUE(rp.ok()) << rp.error;
    EXPECT_TRUE(rs.stats.completed);
    EXPECT_EQ(rs.stats, rp.stats);
    stole = stole || rs.stats.steal_tasks > 0;
  }
  // The sweep genuinely exercised the steal path, not just the partitions.
  EXPECT_TRUE(stole);
}

// The Figure 9 streaming regime — oversubscribed campus uplink, max-min
// water-filling on every dispatch wave, a transient wide-area outage — must
// stay bitwise identical between --jobs 1 and --jobs 4.  This is the
// campaign-level pin of the incremental fair-share solver: any thread-order
// sensitivity in the batched re-solve (shared state, iteration order,
// accumulated floating point) surfaces as a field diff here.
TEST(CampaignTest, StreamingSpecSerialVsParallelBitwise) {
  RunSpec fig09 = small_spec();
  fig09.label = "fig09-mini";
  fig09.cluster.federation.campus_uplink_rate = util::gbit_per_s(1);
  fig09.cluster.federation.per_stream_rate = 3.0e7;
  fig09.workload.tasklet_input_bytes = 390e6;
  fig09.workload.read_fraction = 0.28;
  fig09.workload.access = core::DataAccessMode::Stream;
  fig09.outage_start = 1800.0;
  fig09.outage_duration = 600.0;
  const std::vector<std::uint64_t> seeds = {2015, 2016, 2017, 2018};

  Campaign serial(1);
  serial.add_seed_sweep(fig09, seeds);
  serial.run();

  Campaign parallel(4);
  parallel.add_seed_sweep(fig09, seeds);
  parallel.run();

  ASSERT_EQ(serial.results().size(), seeds.size());
  ASSERT_EQ(parallel.results().size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto& rs = serial.results()[i];
    const auto& rp = parallel.results()[i];
    SCOPED_TRACE("seed " + std::to_string(rs.seed));
    ASSERT_TRUE(rs.ok()) << rs.error;
    ASSERT_TRUE(rp.ok()) << rp.error;
    EXPECT_GT(rs.stats.bytes_streamed, 0.0);  // the regime actually streams
    EXPECT_EQ(rs.stats, rp.stats);
  }
}

// run_200gbps_ramp is documented as a pure function of its options, so a
// seed-swept fan-out across threads must reproduce the serial phase tables
// bitwise — offered/achieved rates, every per-site breakdown entry, broken
// streams and failed opens alike.
TEST(CampaignTest, RampSerialVsParallelBitwise) {
  const std::size_t n = 4;
  auto options_for = [](std::size_t i) {
    RampOptions opt;
    opt.sites = 4;
    opt.trunks = 2;
    opt.target_gbps = 10.0;
    // 4 phases x 30 s: the collapse window (half the horizon, 1.5 phases
    // long) ends at t=105 of 120, so broken streams land inside the run.
    opt.phases = 4;
    opt.phase_seconds = 30.0;
    opt.file_bytes = 2e8;
    opt.uplink_collapse = (i % 2) == 1;  // alternate the failure mode
    opt.seed = 2015 + i;
    return opt;
  };

  std::vector<RampResult> serial(n), parallel(n);
  parallel_runs(n, 1, [&](std::size_t i) {
    serial[i] = run_200gbps_ramp(options_for(i));
  });
  parallel_runs(n, 4, [&](std::size_t i) {
    parallel[i] = run_200gbps_ramp(options_for(i));
  });

  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("ramp " + std::to_string(i));
    const RampResult& a = serial[i];
    const RampResult& b = parallel[i];
    EXPECT_EQ(a.peak_gbps, b.peak_gbps);
    EXPECT_EQ(a.streams_completed, b.streams_completed);
    EXPECT_EQ(a.events_executed, b.events_executed);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t p = 0; p < a.phases.size(); ++p) {
      SCOPED_TRACE("phase " + std::to_string(p));
      const RampPhase& pa = a.phases[p];
      const RampPhase& pb = b.phases[p];
      EXPECT_EQ(pa.offered_gbps, pb.offered_gbps);
      EXPECT_EQ(pa.achieved_gbps, pb.achieved_gbps);
      EXPECT_EQ(pa.broken_streams, pb.broken_streams);
      EXPECT_EQ(pa.failed_opens, pb.failed_opens);
      ASSERT_EQ(pa.site_gbps.size(), pb.site_gbps.size());
      for (std::size_t s = 0; s < pa.site_gbps.size(); ++s)
        EXPECT_EQ(pa.site_gbps[s], pb.site_gbps[s]);
    }
    EXPECT_GT(a.streams_completed, 0u);
  }
  // The collapse runs genuinely broke streams (the failure mode is live).
  EXPECT_GT(serial[1].phases.back().broken_streams, 0u);
}

TEST(CampaignTest, AddGridCrossesSpecsAndSeeds) {
  RunSpec a = small_spec();
  a.label = "a";
  RunSpec b = small_spec();
  b.label = "b";
  b.workload.dispatch = DispatchMode::Lifetime;

  Campaign campaign(2);
  campaign.add_grid({a, b}, {2015, 2016, 2017});
  ASSERT_EQ(campaign.size(), 6u);
  campaign.run();
  const auto& r = campaign.results();
  // Specs outer, seeds inner, submission order preserved.
  EXPECT_EQ(r[0].label, "a");
  EXPECT_EQ(r[0].seed, 2015u);
  EXPECT_EQ(r[2].seed, 2017u);
  EXPECT_EQ(r[3].label, "b");
  EXPECT_EQ(r[3].seed, 2015u);
  const auto agg = campaign.aggregate();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].label, "a");
  EXPECT_EQ(agg[0].runs, 3u);
  EXPECT_EQ(agg[1].label, "b");
  EXPECT_EQ(agg[1].runs, 3u);
}

// A run truncated by its time cap must say so: completed == false in the
// stats, counted by the aggregate — the makespan it reports is only a lower
// bound.
TEST(CampaignTest, TruncatedRunReportsIncomplete) {
  RunSpec truncated = small_spec();
  truncated.time_cap = 900.0;  // the 300-tasklet workflow needs hours

  Campaign campaign(1);
  campaign.add(truncated);
  campaign.add(small_spec(2016));  // full-length sibling under one label
  campaign.run();

  const auto& r = campaign.results();
  ASSERT_TRUE(r[0].ok()) << r[0].error;
  ASSERT_TRUE(r[1].ok()) << r[1].error;
  EXPECT_FALSE(r[0].stats.completed);
  EXPECT_LT(r[0].stats.tasklets_processed,
            truncated.workload.num_tasklets);
  EXPECT_TRUE(r[1].stats.completed);
  EXPECT_EQ(r[1].stats.tasklets_processed, small_spec().workload.num_tasklets);

  const auto agg = campaign.aggregate();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].runs, 2u);
  EXPECT_EQ(agg[0].incomplete, 1u);
  EXPECT_EQ(agg[0].errors, 0u);
}

TEST(CampaignTest, SeedSweepKeepsLabelAndOrder) {
  Campaign campaign(2);
  campaign.add_seed_sweep(small_spec(), {7, 9, 11});
  RunSpec other = small_spec(42);
  other.label = "other";
  campaign.add(other);
  ASSERT_EQ(campaign.size(), 4u);
  campaign.run();
  const auto& r = campaign.results();
  EXPECT_EQ(r[0].seed, 7u);
  EXPECT_EQ(r[1].seed, 9u);
  EXPECT_EQ(r[2].seed, 11u);
  EXPECT_EQ(r[3].seed, 42u);
  EXPECT_EQ(r[0].label, "small");
  EXPECT_EQ(r[3].label, "other");
  // Aggregates group by label in first-submission order.
  const auto agg = campaign.aggregate();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].label, "small");
  EXPECT_EQ(agg[0].runs, 3u);
  EXPECT_EQ(agg[1].label, "other");
  EXPECT_EQ(agg[1].runs, 1u);
}

TEST(CampaignTest, FailedRunIsIsolated) {
  Campaign campaign(2);
  RunSpec bad = small_spec();
  bad.label = "bad";
  bad.cluster.num_squids = 0;  // engine rejects this in its constructor
  campaign.add(small_spec());
  campaign.add(bad);
  campaign.add(small_spec(2016));
  campaign.run();
  const auto& r = campaign.results();
  EXPECT_TRUE(r[0].ok());
  EXPECT_FALSE(r[1].ok());
  EXPECT_NE(r[1].error.find("squid"), std::string::npos);
  EXPECT_TRUE(r[2].ok());
  const auto agg = campaign.aggregate();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[1].label, "bad");
  EXPECT_EQ(agg[1].runs, 0u);
  EXPECT_EQ(agg[1].errors, 1u);
}

TEST(CampaignTest, MetricsRetainedOnlyOnRequest) {
  Campaign lean(1);
  lean.add(small_spec());
  lean.run();
  EXPECT_EQ(lean.results()[0].metrics, nullptr);

  Campaign full(1);
  full.keep_metrics(true);
  full.add(small_spec());
  full.run();
  ASSERT_NE(full.results()[0].metrics, nullptr);
  EXPECT_GT(full.results()[0].metrics->tasklets_processed, 0u);
}

TEST(ParallelRunsTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_runs(64, 4, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---- spec_from_config -------------------------------------------------------

TEST(SpecConfigTest, AcceptsAScenario) {
  const auto cfg = util::Config::parse(
      "[cluster]\n"
      "cores = 256\n"
      "cores_per_worker = 4\n"
      "squids = 2\n"
      "[workflow]\n"
      "seed = 7\n"
      "tasklets = 2000\n"
      "tasklets_per_task = 3\n"
      "lifetime_max_tasklets = 12\n"
      "steal_min_backlog = 0\n"
      "merge = sequential\n"
      "[advisor]\n"
      "enabled = true\n"
      "min_task_size = 2\n");
  const RunSpec spec = spec_from_config(cfg);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.cluster.target_cores, 256u);
  EXPECT_EQ(spec.cluster.cores_per_worker, 4u);
  EXPECT_EQ(spec.cluster.num_squids, 2u);
  EXPECT_EQ(spec.workload.num_tasklets, 2000u);
  EXPECT_EQ(spec.workload.tasklets_per_task, 3u);
  EXPECT_EQ(spec.workload.lifetime_max_tasklets, 12u);
  EXPECT_EQ(spec.workload.steal_min_backlog, 0u);
  EXPECT_EQ(spec.workload.merge_mode, core::MergeMode::Sequential);
  EXPECT_EQ(spec.workload.dispatch, DispatchMode::Fifo);
  EXPECT_TRUE(spec.advisor.enabled);
  EXPECT_EQ(spec.advisor.min_task_size, 2u);
}

TEST(SpecConfigTest, EveryDispatchNameMapsToItsMode) {
  const std::pair<const char*, DispatchMode> names[] = {
      {"fifo", DispatchMode::Fifo},
      {"tail-shrink", DispatchMode::TailShrink},
      {"site-aware", DispatchMode::SiteAware},
      {"lifetime", DispatchMode::Lifetime},
      {"partitioned", DispatchMode::Partitioned},
      {"stealing", DispatchMode::Stealing},
  };
  for (const auto& [name, mode] : names) {
    util::Config cfg;
    cfg.set("workflow", "dispatch", name);
    EXPECT_EQ(spec_from_config(cfg).workload.dispatch, mode) << name;
  }
  util::Config typo;
  typo.set("workflow", "dispatch", "tailshrink");
  EXPECT_THROW(spec_from_config(typo), std::invalid_argument);
}

// A zero uplink would build a campus path on which every open fails as if
// the network were out; it is a config error instead.
TEST(SpecConfigTest, NonPositiveUplinkIsRejected) {
  for (const char* v : {"0", "-0", "-10"}) {
    util::Config cfg;
    cfg.set("cluster", "uplink", v);
    try {
      (void)spec_from_config(cfg);
      ADD_FAILURE() << "[cluster] uplink = " << v << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("[cluster] uplink "),
                std::string::npos)
          << e.what();
    }
  }
  util::Config ok;
  ok.set("cluster", "uplink", "2.5");
  EXPECT_DOUBLE_EQ(spec_from_config(ok).cluster.federation.campus_uplink_rate,
                   util::gbit_per_s(2.5));
}

// Each INI integer that lands in an unsigned field: a negative value must
// be rejected by name instead of wrapping to ~1.8e19.  Strings, not char
// pointers, so the parameter prints the same in every test listing.
using SectionKey = std::pair<std::string, std::string>;
class SpecConfigNegativeCount : public ::testing::TestWithParam<SectionKey> {};

TEST_P(SpecConfigNegativeCount, IsRejectedBySectionAndKey) {
  const auto& [section, key] = GetParam();
  util::Config cfg;
  cfg.set(section, key, "-1");
  try {
    (void)spec_from_config(cfg);
    ADD_FAILURE() << "[" << section << "] " << key << " = -1 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string where = "[" + section + "] " + key + " ";
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    UnsignedKeys, SpecConfigNegativeCount,
    ::testing::Values(SectionKey{"cluster", "cores"},
                      SectionKey{"cluster", "cores_per_worker"},
                      SectionKey{"cluster", "squids"},
                      SectionKey{"workflow", "tasklets"},
                      SectionKey{"workflow", "tasklets_per_task"},
                      SectionKey{"workflow", "lifetime_max_tasklets"},
                      SectionKey{"workflow", "steal_min_backlog"},
                      SectionKey{"advisor", "min_task_size"}),
    [](const auto& info) {
      return info.param.first + "_" + info.param.second;
    });

}  // namespace
}  // namespace lobster::lobsim
