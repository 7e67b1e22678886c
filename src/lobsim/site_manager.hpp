// site_manager.hpp — batch-system ramp, worker lifecycle and eviction,
// extracted from the Engine.
//
// The opportunistic pool is what makes Lobster's environment hard: workers
// are granted gradually by the batch system, live under a pluggable
// availability climate (availability.hpp: the Figure 2 Weibull log, a
// replayed eviction trace, a diurnal cycle, or adversarial eviction
// bursts), and return after an exponential backoff when evicted.  The
// SiteManager owns that whole layer — per-site infrastructure (federation
// WAN path, squid proxies, availability model) plus
// the worker ramp/rebirth processes — so the Engine only supplies the slot
// body that pulls and runs tasks.  Multi-site harvesting (paper §7) is a
// list of sites; site 0 is always the home campus.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chirp/chirp.hpp"
#include "core/task_size_model.hpp"
#include "cvmfs/squid.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "lobsim/availability.hpp"
#include "util/rng.hpp"
#include "xrootd/federation.hpp"

namespace lobster::lobsim {

/// An additional remote site contributing opportunistic workers (paper §7:
/// "Lobster's design makes it possible to harvest resources from several
/// clusters, and even commercial clouds, together").  Each site brings its
/// own WAN path and squid; outputs still flow to the home Chirp server.
struct SiteParams {
  std::string name = "remote";
  std::size_t target_cores = 0;
  double ramp_seconds = 3600.0;
  /// Per-site availability climate (a commercial cloud is effectively
  /// dedicated while paid for; a borrowed HPC partition may be harsher
  /// than campus).  One config drives both the home and extra sites, so
  /// the two can't silently disagree.
  AvailabilityConfig availability;
  bool evictions = true;
  std::size_t num_squids = 1;
  cvmfs::SquidSim::Params squid;
  xrootd::FederationSim::Params federation;
};

/// Cluster and infrastructure parameters.
struct ClusterParams {
  std::size_t target_cores = 10000;
  std::size_t cores_per_worker = 8;  ///< paper §3: 8-core workers
  /// Workers join gradually (batch system grants) over this window.
  double ramp_seconds = 3600.0;
  /// Availability climate of the home site (availability.hpp: weibull /
  /// trace / diurnal / adversarial-burst).
  AvailabilityConfig availability;
  /// When false, workers are dedicated (no eviction) — ablation switch.
  bool evictions = true;

  std::size_t num_squids = 1;
  cvmfs::SquidSim::Params squid;
  chirp::ChirpSim::Params chirp;
  xrootd::FederationSim::Params federation;

  /// Extra sites harvested alongside the home campus (index 0 is always
  /// the home site built from the fields above).
  std::vector<SiteParams> extra_sites;
};

/// Index-based handle naming one worker node: `site` picks the site,
/// `index` the slot in that site's dense node array.  Nodes are
/// preallocated for the whole run (lives recycle in place), so a handle
/// never goes stale and resolution is two array indexations — no hashing,
/// no shared_ptr control blocks on the dispatch hot path.
struct NodeHandle {
  std::uint32_t site = 0;
  std::uint32_t index = 0;
  friend bool operator==(const NodeHandle&, const NodeHandle&) = default;
};

/// A worker node: one batch-system slot of `cores_per_worker` cores
/// sharing a Parrot cache, a squid assignment, and a common fate under
/// eviction.
struct WorkerNode {
  std::size_t id = 0;
  util::Rng rng{0};
  std::size_t site = 0;
  std::size_t squid = 0;
  /// Per-worker replay phase (trace availability): a hash of (site, id)
  /// offsets this worker into the interval log; incarnations advance it.
  std::uint64_t avail_phase = 0;
  double death = std::numeric_limits<double>::infinity();
  bool alive = false;
  // Cache state for the current life.  Population is a retryable state
  // machine: if the populating slot's fetch fails (squid timeout), the
  // state returns to Cold and the waiters of that round are woken so one
  // of them can retry — a failure must never strand the other slots.
  enum class CacheState { Cold, Populating, Ready };
  CacheState cache_state = CacheState::Cold;
  std::shared_ptr<des::Event> cache_round;
  std::vector<bool> slot_head_ready;  // PerInstance only
  // Exclusive mode: the whole-cache write lock serialising every access.
  std::unique_ptr<des::Resource> cache_lock;
};

class SiteManager {
 public:
  /// Coroutine body run for each live core slot; it pulls and executes
  /// tasks until the worker dies or the workflow ends.  The handle resolves
  /// through node() to storage that is stable for the whole run.
  using SlotBody = std::function<des::Process(NodeHandle, std::size_t)>;
  /// Engine-side predicate: stop granting / reviving workers once true.
  using DonePredicate = std::function<bool()>;

  /// Builds the home site from `cluster` plus every extra site, each with
  /// its own federation path, squids and eviction model.  `rng` is the
  /// scenario-level generator; per-site and per-node streams are derived
  /// from it by name so runs stay reproducible.
  SiteManager(des::Simulation& sim, const ClusterParams& cluster,
              const util::Rng& rng);

  /// Spawn every site's batch-system ramp.  Worker arrivals stagger across
  /// each site's ramp window; dead workers rejoin after an exponential
  /// backoff for as long as `done()` is false and now < time_cap.
  void start(SlotBody slot_body, DonePredicate done, double time_cap);

  /// Inject a WAN outage (Figure 10's transient failure burst).  The
  /// wide-area data handling system is shared: every site's path to the
  /// federation breaks together.
  void schedule_outage(double start, double duration);

  [[nodiscard]] std::size_t num_sites() const { return sites_.size(); }
  /// Cluster-wide core count (every site's target_cores summed).
  [[nodiscard]] std::uint64_t total_slots() const { return total_slots_; }
  /// Resolve a node handle to its (stable) dense-array slot — O(1), the
  /// engine calls this on every dispatch and eviction check.
  [[nodiscard]] WorkerNode& node(NodeHandle h) {
    return sites_[h.site].nodes[h.index];
  }
  [[nodiscard]] const WorkerNode& node(NodeHandle h) const {
    return sites_[h.site].nodes[h.index];
  }
  /// Workers preallocated at `site` (target_cores / cores_per_worker).
  [[nodiscard]] std::size_t num_workers(std::size_t site) const {
    return sites_.at(site).nodes.size();
  }
  xrootd::FederationSim& federation(std::size_t site) {
    return *sites_.at(site).federation;
  }
  cvmfs::SquidSim& squid(std::size_t site, std::size_t i) {
    return *sites_.at(site).squids.at(i);
  }
  const SiteParams& site_params(std::size_t site) const {
    return sites_.at(site).params;
  }
  bool site_evictable(std::size_t site) const {
    return sites_.at(site).params.evictions;
  }
  /// Expected lifetime of a worker incarnation starting at `now` on
  /// `site` — the quantity the ROADMAP's expected-lifetime DispatchPolicy
  /// sizes tasks against (paper §4.1: "sized to the expected lifetime of
  /// the worker").
  double expected_remaining_lifetime(std::size_t site, double now) const {
    return sites_.at(site).availability->expected_lifetime(now);
  }

 private:
  /// Runtime state of one harvested site.
  struct Site {
    SiteParams params;
    std::unique_ptr<xrootd::FederationSim> federation;
    std::vector<std::unique_ptr<cvmfs::SquidSim>> squids;
    std::unique_ptr<AvailabilityModel> availability;
    /// Dense node array, fully allocated at construction and never
    /// resized — coroutines hold references into it across suspensions.
    std::vector<WorkerNode> nodes;
  };

  des::Process site_batch_system(std::size_t site_index);
  des::Process worker_life(NodeHandle handle);

  des::Simulation& sim_;
  std::size_t cores_per_worker_;
  util::Rng rng_;
  std::vector<Site> sites_;
  std::uint64_t total_slots_ = 0;
  SlotBody slot_body_;
  DonePredicate done_;
  double time_cap_ = 0.0;
};

}  // namespace lobster::lobsim
