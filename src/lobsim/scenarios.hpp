// scenarios.hpp — the canned parameter sets behind the paper's evaluation
// figures.  Each function returns the (cluster, workload) pair used by the
// corresponding bench binary; the knobs and their provenance are documented
// inline so the calibration is auditable against the paper text.
#pragma once

#include <string>
#include <vector>

#include "lobsim/campaign.hpp"
#include "lobsim/engine.hpp"
#include "util/stats.hpp"

namespace lobster::lobsim {

/// The ~10k-core data processing run of Figures 8, 9 and 10: streaming
/// analysis over the WAN, the campus uplink saturated, a transient
/// wide-area outage midway.
struct DataProcessingScenario {
  ClusterParams cluster;
  WorkloadParams workload;
  double outage_start = 0.0;
  double outage_duration = 0.0;
  std::uint64_t seed = 2015;
};
DataProcessingScenario data_processing_scenario();

/// The ~20k-core simulation (Monte Carlo) run of Figure 11: negligible
/// input streaming, cold caches saturating the squid at startup, Chirp
/// stage-out waves.
struct SimulationRunScenario {
  ClusterParams cluster;
  WorkloadParams workload;
  std::uint64_t seed = 2015;
};
SimulationRunScenario simulation_run_scenario();

/// Figure 4: staging vs streaming, identical workload.
struct DataAccessResult {
  std::string mode;
  double processing_time = 0.0;  ///< cpu + overlapped I/O per task (mean)
  double overhead_time = 0.0;    ///< setup + stage-in + stage-out (mean)
  double makespan = 0.0;
};

/// Figure 4 as a campaign: each access mode swept over `seeds`, executed
/// `jobs`-wide.  `detail` is the per-mode view of seeds[0] (what the
/// single-run figure prints); `aggregate` folds every seed.
struct DataAccessCampaign {
  std::vector<DataAccessResult> detail;
  struct ModeAggregate {
    std::string mode;
    util::RunningStats processing_time;  ///< per-task, across seeds
    util::RunningStats overhead_time;
    util::RunningStats makespan;
  };
  std::vector<ModeAggregate> aggregate;
};
DataAccessCampaign run_data_access_campaign(
    const std::vector<std::uint64_t>& seeds, std::size_t jobs);

/// Figure 5: mean task overhead vs tasks sharing one proxy, cold vs hot.
struct ProxyScalingPoint {
  std::size_t clients = 0;
  double cold_overhead = 0.0;  ///< mean seconds to populate a cold cache
  double hot_overhead = 0.0;   ///< mean seconds of hot-cache setup
  double cold_sd = 0.0;        ///< across-seed spread (0 for one seed)
  double hot_sd = 0.0;
};

/// Figure 5 as a campaign: every (client count) point runs as its own DES
/// instance across `jobs` threads, and each point averages over `seeds`.
std::vector<ProxyScalingPoint> run_proxy_scaling(
    const std::vector<std::size_t>& client_counts,
    const std::vector<std::uint64_t>& seeds, std::size_t jobs);

/// Figure 7: the three merging modes on the same workload.
struct MergeModeResult {
  core::MergeMode mode;
  double analysis_finish = 0.0;
  double merge_finish = 0.0;    ///< completion of the last merge task
  std::uint64_t merge_tasks = 0;
  /// Completed analysis / merge tasks per time bin.
  std::vector<double> analysis_per_bin;
  std::vector<double> merge_per_bin;
  double bin_seconds = 0.0;
};

/// Figure 7 as a campaign: each merge mode swept over `seeds`, executed
/// `jobs`-wide.  `detail` holds the per-mode timelines of seeds[0];
/// `aggregate` folds every seed, one entry per mode labelled
/// core::to_string(mode).
struct MergeCampaign {
  std::vector<MergeModeResult> detail;
  std::vector<CampaignAggregate> aggregate;
};
MergeCampaign run_merge_campaign(const std::vector<std::uint64_t>& seeds,
                                 std::size_t jobs);

/// Figure 16: the 200 Gbps data-plane challenge — `sites` site uplinks
/// feeding `trunks` shared WAN trunks through the multi-path federation,
/// offered load ramping phase by phase up to `target_gbps`.  A pure
/// function of the options (seed included), so campaigns can fan ramps
/// across threads and pin serial == parallel bitwise.
struct RampOptions {
  std::size_t sites = 16;
  std::size_t trunks = 4;
  double target_gbps = 200.0;
  std::size_t phases = 8;
  double phase_seconds = 120.0;
  double file_bytes = 2e9;          ///< per-stream transfer volume
  double per_stream_rate = 3.0e7;   ///< server/TCP per-stream ceiling
  xrootd::PathPolicy policy = xrootd::PathPolicy::LeastLoaded;
  /// Collapse site 0's uplink mid-ramp for 1.5 phases (the uplink-collapse
  /// failure mode): its streams break, opens re-route to survivors.
  bool uplink_collapse = false;
  std::uint64_t seed = 2015;
};
struct RampPhase {
  double offered_gbps = 0.0;
  double achieved_gbps = 0.0;      ///< sum of per-site uplink deltas
  std::vector<double> site_gbps;   ///< per-site achieved this phase
  std::uint64_t broken_streams = 0;  ///< cumulative at phase end
  std::uint64_t failed_opens = 0;    ///< cumulative at phase end
};
struct RampResult {
  std::vector<RampPhase> phases;
  double peak_gbps = 0.0;
  std::uint64_t streams_completed = 0;
  std::uint64_t events_executed = 0;
};
RampResult run_200gbps_ramp(const RampOptions& opt);

/// Figure 9: the "global dashboard" ledger of XrootD consumers.  Background
/// sites are synthesized around the measured Lobster volume.
struct ConsumerEntry {
  std::string site;
  double bytes = 0.0;
};
std::vector<ConsumerEntry> dashboard_ledger(double lobster_bytes,
                                            std::uint64_t seed);

}  // namespace lobster::lobsim
