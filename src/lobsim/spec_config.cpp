#include "lobsim/spec_config.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace lobster::lobsim {

namespace {
/// An INI integer bound for an unsigned field.  A negative value would wrap
/// to ~1.8e19 (cores = -8 asked for 1.8e19 cores), so it is rejected here.
template <typename T>
T get_count(const util::Config& cfg, const std::string& section,
            const std::string& key, T fallback) {
  const std::int64_t v =
      cfg.get_int(section, key, static_cast<std::int64_t>(fallback));
  if (v < 0)
    throw std::invalid_argument("[" + section + "] " + key +
                                " must be >= 0 (got " + std::to_string(v) +
                                ")");
  return static_cast<T>(v);
}
}  // namespace

RunSpec spec_from_config(const util::Config& cfg) {
  RunSpec spec;
  spec.seed =
      static_cast<std::uint64_t>(cfg.get_int("workflow", "seed", 2015));

  auto& cluster = spec.cluster;
  cluster.target_cores = get_count<std::size_t>(cfg, "cluster", "cores", 5000);
  cluster.cores_per_worker =
      get_count<std::size_t>(cfg, "cluster", "cores_per_worker", 8);
  cluster.ramp_seconds = cfg.get_duration("cluster", "ramp", 3600.0);
  // Availability model: `availability = kind[:key=value,...]`, with the
  // legacy `availability_hours` shorthand still honoured (it sets the scale
  // of whichever model is selected).
  if (const auto avail = cfg.get("cluster", "availability"))
    cluster.availability = parse_availability_spec(*avail);
  else
    cluster.availability.scale_hours = 8.0;
  cluster.availability.scale_hours = cfg.get_double(
      "cluster", "availability_hours", cluster.availability.scale_hours);
  cluster.evictions = cfg.get_bool("cluster", "evictions", true);
  const double uplink_gbps = cfg.get_double("cluster", "uplink", 10.0);
  if (!(uplink_gbps > 0.0))
    throw std::invalid_argument("[cluster] uplink must be > 0 (got " +
                                std::to_string(uplink_gbps) + ")");
  cluster.federation.campus_uplink_rate = util::gbit_per_s(uplink_gbps);
  cluster.num_squids = get_count<std::size_t>(cfg, "cluster", "squids", 1);
  cluster.chirp.max_connections =
      cfg.get_int("cluster", "chirp_connections", 24);

  auto& workload = spec.workload;
  workload.num_tasklets =
      get_count<std::uint64_t>(cfg, "workflow", "tasklets", 30000);
  workload.tasklets_per_task =
      get_count<std::uint32_t>(cfg, "workflow", "tasklets_per_task", 6);
  workload.tasklet_cpu_mean =
      cfg.get_duration("workflow", "tasklet_cpu", 600.0);
  workload.tasklet_cpu_sigma = workload.tasklet_cpu_mean / 2.0;
  workload.tasklet_input_bytes =
      cfg.get_size("workflow", "input_per_tasklet", 350e6);
  workload.read_fraction = cfg.get_double("workflow", "read_fraction", 0.3);
  workload.tasklet_output_bytes =
      cfg.get_size("workflow", "output_per_tasklet", 20e6);

  const std::string access = cfg.get_string("workflow", "access", "stream");
  if (access == "stage")
    workload.access = core::DataAccessMode::Stage;
  else if (access != "stream")
    throw std::invalid_argument("unknown access mode '" + access + "'");

  const std::string merge = cfg.get_string("workflow", "merge", "interleaved");
  if (merge == "sequential")
    workload.merge_mode = core::MergeMode::Sequential;
  else if (merge == "hadoop")
    workload.merge_mode = core::MergeMode::Hadoop;
  else if (merge != "interleaved")
    throw std::invalid_argument("unknown merge mode '" + merge + "'");

  const std::string dispatch = cfg.get_string("workflow", "dispatch", "fifo");
  if (dispatch == "tail-shrink")
    workload.dispatch = DispatchMode::TailShrink;
  else if (dispatch == "site-aware")
    workload.dispatch = DispatchMode::SiteAware;
  else if (dispatch == "lifetime")
    workload.dispatch = DispatchMode::Lifetime;
  else if (dispatch == "partitioned")
    workload.dispatch = DispatchMode::Partitioned;
  else if (dispatch == "stealing")
    workload.dispatch = DispatchMode::Stealing;
  else if (dispatch != "fifo")
    throw std::invalid_argument("unknown dispatch mode '" + dispatch + "'");

  workload.lifetime_safety =
      cfg.get_double("workflow", "lifetime_safety", workload.lifetime_safety);
  workload.lifetime_max_tasklets = get_count(
      cfg, "workflow", "lifetime_max_tasklets", workload.lifetime_max_tasklets);
  workload.steal_penalty_factor = cfg.get_double(
      "workflow", "steal_penalty_factor", workload.steal_penalty_factor);
  workload.steal_min_backlog = get_count(
      cfg, "workflow", "steal_min_backlog", workload.steal_min_backlog);

  spec.outage_start = cfg.get_duration("failures", "outage_start", 0.0);
  spec.outage_duration = cfg.get_duration("failures", "outage_duration", 0.0);
  // Simulated-time budget; runs still unfinished at the cap are reported
  // as INCOMPLETE rather than pretending the cap was the makespan.
  spec.time_cap = cfg.get_duration("run", "time_cap", spec.time_cap);

  // Online advisor loop (all keys optional; absent section = advisor off,
  // which also keeps the trace byte-identical to pre-advisor builds).
  auto& adv = spec.advisor;
  adv.enabled = cfg.get_bool("advisor", "enabled", false);
  adv.period = cfg.get_duration("advisor", "period", adv.period);
  adv.thresholds.lost_fraction = cfg.get_double(
      "advisor", "lost_fraction", adv.thresholds.lost_fraction);
  adv.thresholds.dispatch_fraction = cfg.get_double(
      "advisor", "dispatch_fraction", adv.thresholds.dispatch_fraction);
  adv.thresholds.setup_fraction = cfg.get_double(
      "advisor", "setup_fraction", adv.thresholds.setup_fraction);
  adv.thresholds.staging_fraction = cfg.get_double(
      "advisor", "staging_fraction", adv.thresholds.staging_fraction);
  adv.thresholds.failed_fraction = cfg.get_double(
      "advisor", "failed_fraction", adv.thresholds.failed_fraction);
  adv.shrink_factor =
      cfg.get_double("advisor", "shrink_factor", adv.shrink_factor);
  adv.min_task_size =
      get_count(cfg, "advisor", "min_task_size", adv.min_task_size);
  adv.proxy_waste_fraction = cfg.get_double(
      "advisor", "proxy_waste_fraction", adv.proxy_waste_fraction);
  adv.throttle_share =
      cfg.get_double("advisor", "throttle_share", adv.throttle_share);
  adv.probe_share = cfg.get_double("advisor", "probe_share", adv.probe_share);
  adv.recover_factor =
      cfg.get_double("advisor", "recover_factor", adv.recover_factor);
  adv.restore_step =
      cfg.get_double("advisor", "restore_step", adv.restore_step);
  adv.ewma_tau = cfg.get_duration("advisor", "ewma_tau", adv.ewma_tau);
  if (adv.period <= 0.0)
    throw std::invalid_argument("[advisor] period must be > 0");

  return spec;
}

}  // namespace lobster::lobsim
