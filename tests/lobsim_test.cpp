// Tests for the cluster-scale DES engine: workload completion, eviction
// retry semantics, merge modes, outage injection, cache-mode ablation and
// determinism.
#include <gtest/gtest.h>

#include "lobsim/engine.hpp"
#include "lobsim/scenarios.hpp"

namespace lobsim = lobster::lobsim;
namespace core = lobster::core;
namespace cv = lobster::cvmfs;

namespace {
lobsim::ClusterParams small_cluster() {
  lobsim::ClusterParams c;
  c.target_cores = 64;
  c.cores_per_worker = 8;
  c.ramp_seconds = 600.0;
  c.squid.max_connections = 1000;
  c.chirp.max_connections = 16;
  return c;
}

lobsim::WorkloadParams small_workload() {
  lobsim::WorkloadParams w;
  w.num_tasklets = 300;
  w.tasklets_per_task = 6;
  w.tasklet_cpu_mean = 600.0;
  w.tasklet_cpu_sigma = 300.0;
  w.tasklet_input_bytes = 50e6;
  w.tasklet_output_bytes = 5e6;
  w.merge_policy.target_bytes = 100e6;
  return w;
}
}  // namespace

TEST(Engine, CompletesWorkloadWithoutEvictions) {
  auto cluster = small_cluster();
  cluster.evictions = false;
  lobsim::Engine engine(cluster, small_workload(), 42);
  const auto& m = engine.run(20.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 300u);
  EXPECT_EQ(m.tasks_evicted, 0u);
  EXPECT_GT(m.tasks_completed, 0u);
  EXPECT_GT(m.merge_tasks_completed, 0u);
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.bytes_streamed, 0.0);
  EXPECT_GT(m.bytes_staged_out, 0.0);
}

TEST(Engine, CompletesDespiteEvictions) {
  auto cluster = small_cluster();
  cluster.evictions = true;
  cluster.availability.scale_hours = 2.0;  // hostile pool
  lobsim::Engine engine(cluster, small_workload(), 7);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 300u)
      << "every tasklet must eventually be processed";
  EXPECT_GT(m.tasks_evicted, 0u) << "the hostile pool must evict something";
}

TEST(Engine, DeterministicForSeed) {
  auto run_once = [] {
    lobsim::Engine engine(small_cluster(), small_workload(), 99);
    const auto& m = engine.run();
    return std::make_tuple(m.makespan, m.tasks_completed, m.tasks_evicted,
                           m.bytes_streamed);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StagingUsesStagePathAndStreamUsesStream) {
  auto wl = small_workload();
  wl.merge_mode = core::MergeMode::Sequential;
  wl.num_tasklets = 60;
  // Exact byte accounting requires no retries: disable evictions.
  auto cluster = small_cluster();
  cluster.evictions = false;

  wl.access = core::DataAccessMode::Stream;
  lobsim::Engine stream_engine(cluster, wl, 1);
  const auto& sm = stream_engine.run();
  // Streaming reads only read_fraction of each input (paper §4.2).
  EXPECT_NEAR(stream_engine.federation().bytes_streamed(),
              60 * 50e6 * wl.read_fraction, 60 * 50e6 * 0.01);

  wl.access = core::DataAccessMode::Stage;
  lobsim::Engine stage_engine(cluster, wl, 1);
  const auto& gm = stage_engine.run();
  // Staging transfers whole files: analysis inputs (plus merge inputs).
  EXPECT_GT(stage_engine.federation().bytes_staged(), 60 * 50e6 * 0.99);
  EXPECT_GT(sm.tasklets_processed, 0u);
  EXPECT_GT(gm.tasklets_processed, 0u);
}

TEST(Engine, OutageProducesFailureBurst) {
  auto cluster = small_cluster();
  cluster.evictions = false;
  auto wl = small_workload();
  wl.num_tasklets = 600;
  lobsim::Engine engine(cluster, wl, 5);
  // Outage two hours in, lasting 30 minutes.
  engine.schedule_outage(2.0 * 3600.0, 1800.0);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_GT(m.tasks_failed, 0u)
      << "streams opened during or broken by the outage fail";
  EXPECT_EQ(m.tasklets_processed, 600u) << "failed tasks are retried";
  // Failure events cluster at the outage: none before it, and broken
  // streams surface shortly after the path comes back.
  for (const auto& [t, code] : m.failure_events) {
    EXPECT_GE(t, 2.0 * 3600.0);
    EXPECT_LE(t, 2.0 * 3600.0 + 1800.0 + 1800.0);
  }
}

TEST(Engine, MergeModesAllComplete) {
  for (auto mode : {core::MergeMode::Sequential, core::MergeMode::Hadoop,
                    core::MergeMode::Interleaved}) {
    auto wl = small_workload();
    wl.merge_mode = mode;
    lobsim::Engine engine(small_cluster(), wl, 3);
    const auto& m = engine.run(30.0 * 86400.0);
    EXPECT_EQ(m.tasklets_processed, 300u) << core::to_string(mode);
    EXPECT_GT(m.merge_tasks_completed, 0u) << core::to_string(mode);
    EXPECT_GE(m.last_merge_finish, m.last_analysis_finish -1e-9)
        << core::to_string(mode);
  }
}

TEST(Engine, InterleavedMergesOverlapAnalysis) {
  // Make merging a substantial fraction of the run so the Figure 7 effect
  // is visible: large outputs and a modest Chirp NIC.
  auto cluster = small_cluster();
  cluster.chirp.nic_rate = 2.5e8;
  auto wl = small_workload();
  wl.num_tasklets = 900;
  wl.tasklet_output_bytes = 100e6;
  wl.merge_policy.target_bytes = 2e9;
  wl.merge_mode = core::MergeMode::Interleaved;
  lobsim::Engine inter(cluster, wl, 11);
  const auto& mi = inter.run(30.0 * 86400.0);

  wl.merge_mode = core::MergeMode::Sequential;
  lobsim::Engine seq(cluster, wl, 11);
  const auto& ms = seq.run(30.0 * 86400.0);

  // Figure 7: interleaved completes faster overall because merging
  // proceeds concurrently with analysis.
  EXPECT_LT(mi.makespan, ms.makespan);
  // And at least one interleaved merge finished before analysis ended.
  bool overlapped = false;
  for (std::size_t b = 0; b < mi.merge_done.nbins(); ++b) {
    if (mi.merge_done.sum(b) > 0.0 &&
        mi.merge_done.bin_start(b) < mi.last_analysis_finish) {
      overlapped = true;
      break;
    }
  }
  EXPECT_TRUE(overlapped);
}

TEST(Engine, CacheModeBandwidthOrdering) {
  // Per-instance caches multiply proxy->worker traffic in direct proportion
  // to the slots per node (paper §4.3); exclusive matches alien in bytes
  // but serialises fetches, inflating setup time.
  struct Result {
    double service_bytes;
    double setup_time;
  };
  auto measure = [](cv::CacheMode mode) {
    auto wl = small_workload();
    wl.num_tasklets = 120;
    wl.cache_mode = mode;
    wl.merge_mode = core::MergeMode::Sequential;
    lobsim::ClusterParams cluster;
    cluster.target_cores = 32;
    cluster.cores_per_worker = 8;
    cluster.ramp_seconds = 60.0;
    cluster.evictions = false;
    // Cold-cache population issues many small requests; the per-request
    // latency is what lock serialisation costs (aggregate bandwidth is the
    // same for exclusive and alien, which share one copy).
    cluster.squid.request_latency = 5.0;
    lobsim::Engine engine(cluster, wl, 21);
    const auto& m = engine.run(30.0 * 86400.0);
    // breakdown.other = dispatch + env setup + cleanup; only env setup is
    // nonzero in the simulated wrapper.
    return Result{engine.squid(0).service_link().bytes_moved(),
                  m.monitor.breakdown().other};
  };
  const auto alien = measure(cv::CacheMode::Alien);
  const auto exclusive = measure(cv::CacheMode::Exclusive);
  const auto per_instance = measure(cv::CacheMode::PerInstance);
  EXPECT_GT(per_instance.service_bytes, 3.0 * alien.service_bytes)
      << "per-instance caches re-download the shared head on every slot";
  EXPECT_NEAR(exclusive.service_bytes / alien.service_bytes, 1.0, 0.2)
      << "exclusive shares one copy, like alien";
  EXPECT_GT(exclusive.setup_time, alien.setup_time)
      << "the whole-cache write lock serialises concurrent setups";
}

TEST(Engine, PeakRunningBoundedByCores) {
  auto cluster = small_cluster();
  lobsim::Engine engine(cluster, small_workload(), 17);
  const auto& m = engine.run();
  EXPECT_LE(m.peak_running, cluster.target_cores);
  EXPECT_GT(m.peak_running, 0u);
}

// Cost pin: a slot with nothing to do must not spend events while it
// waits.  64 dedicated slots share 8 one-tasklet tasks, so 56 sit idle for
// the whole run; doubling that idle tail (10 h -> 20 h tasks) may add a few
// gauge samples, but fewer events than there are slots.  Idle slots that
// poll once a simulated minute would add ~33 600.
TEST(Engine, IdleTailCostsNoEventsPerMinute) {
  auto events_for = [](double task_seconds) -> long long {
    auto cluster = small_cluster();
    cluster.evictions = false;
    auto w = small_workload();
    w.num_tasklets = 8;
    w.tasklets_per_task = 1;
    w.tasklet_cpu_mean = task_seconds;
    w.tasklet_cpu_sigma = 1.0;
    lobsim::Engine engine(cluster, w, 42, 36000.0);
    const auto& m = engine.run(20.0 * 86400.0);
    EXPECT_TRUE(m.completed);
    EXPECT_EQ(m.tasklets_processed, 8u);
    return static_cast<long long>(engine.sim().events_executed());
  };
  const long long ten_hours = events_for(36000.0);
  const long long twenty_hours = events_for(72000.0);
  EXPECT_LT(twenty_hours - ten_hours, 64)
      << ten_hours << " events with 10 h tasks, " << twenty_hours
      << " with 20 h tasks";
}

// Cost pin: fig16's CI smoke (8 sites to 50 Gbit/s, 60-s phases).  Its
// links run cap-bound under capacity until the trunks saturate, so a join
// that does not move a link's next completion schedules nothing: the run
// executes 4 742 kernel events, where a flush and a re-armed timer per
// join took 7 568.
TEST(Ramp, SmokeRunSchedulesNoEventPerUnmovedJoin) {
  lobsim::RampOptions opt;
  opt.sites = 8;
  opt.target_gbps = 50.0;
  opt.phase_seconds = 60.0;
  const lobsim::RampResult r = lobsim::run_200gbps_ramp(opt);
  EXPECT_GT(r.streams_completed, 0u);
  EXPECT_LE(r.events_executed, 5000u);
}

// A finished workflow leaves nothing behind: every idle slot is woken to
// leave, and no timer outlives the run, so run() stops slicing as soon as
// the last process ends — in every merge mode, advisor on or off.
TEST(Engine, FinishedRunLeavesNoProcessOrEvent) {
  for (auto mode : {core::MergeMode::Sequential, core::MergeMode::Hadoop,
                    core::MergeMode::Interleaved}) {
    for (bool advisor : {false, true}) {
      auto w = small_workload();
      w.merge_mode = mode;
      lobsim::Engine engine(small_cluster(), w, 7);
      if (advisor) engine.enable_advisor(lobsim::AdvisorConfig{});
      const auto& m = engine.run(20.0 * 86400.0);
      ASSERT_TRUE(m.completed);
      EXPECT_EQ(engine.sim().live_processes(), 0u)
          << core::to_string(mode) << " advisor=" << advisor;
      EXPECT_EQ(engine.sim().pending_events(), 0u)
          << core::to_string(mode) << " advisor=" << advisor;
      // The last slice ends within a day of the last completion (idle
      // slots, samplers and rejoin back-offs all wind down by then).
      EXPECT_LT(engine.sim().now(), m.makespan + 86400.0)
          << core::to_string(mode) << " advisor=" << advisor;
    }
  }
}

TEST(Engine, RejectsZeroSquids) {
  auto cluster = small_cluster();
  cluster.num_squids = 0;
  EXPECT_THROW(lobsim::Engine(cluster, small_workload(), 1),
               std::invalid_argument);
}

TEST(Engine, MultiSiteHarvestingUsesEverySite) {
  // Paper SS7: "Lobster's design makes it possible to harvest resources
  // from several clusters, and even commercial clouds, together."
  auto cluster = small_cluster();
  cluster.target_cores = 32;
  cluster.evictions = false;
  lobsim::SiteParams hpc;
  hpc.name = "hpc-partition";
  hpc.target_cores = 32;
  hpc.ramp_seconds = 300.0;
  hpc.availability.scale_hours = 2.0;  // harsher than campus
  lobsim::SiteParams cloud;
  cloud.name = "cloud-burst";
  cloud.target_cores = 32;
  cloud.ramp_seconds = 120.0;
  cloud.evictions = false;  // paid-for instances are dedicated
  cluster.extra_sites = {hpc, cloud};

  auto wl = small_workload();
  wl.num_tasklets = 600;
  lobsim::Engine engine(cluster, wl, 13);
  const auto& m = engine.run(30.0 * 86400.0);
  EXPECT_EQ(m.tasklets_processed, 600u);
  ASSERT_EQ(engine.num_sites(), 3u);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_GT(engine.per_site_tasklets()[s], 0u)
        << "site " << s << " must contribute";
    total += engine.per_site_tasklets()[s];
  }
  EXPECT_EQ(total, 600u);
  // Streams flowed over every site's own WAN path.
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_GT(engine.federation(s).bytes_streamed(), 0.0);
}

TEST(Engine, MultiSiteBeatsSingleSiteMakespan) {
  auto wl = small_workload();
  wl.num_tasklets = 900;
  wl.merge_mode = core::MergeMode::Sequential;
  wl.dispatch = lobsim::DispatchMode::TailShrink;  // SS8; see fig14

  auto alone = small_cluster();
  alone.target_cores = 64;
  alone.evictions = false;
  lobsim::Engine single(alone, wl, 19);
  const double t_single = single.run(30.0 * 86400.0).makespan;

  auto fleet = alone;
  lobsim::SiteParams cloud;
  cloud.name = "cloud";
  cloud.target_cores = 64;
  cloud.ramp_seconds = 300.0;
  cloud.evictions = false;
  fleet.extra_sites = {cloud};
  lobsim::Engine both(fleet, wl, 19);
  const double t_fleet = both.run(30.0 * 86400.0).makespan;

  EXPECT_LT(t_fleet, 0.75 * t_single)
      << "doubling the harvested cores must cut the makespan substantially";
}
