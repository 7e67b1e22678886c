#include "lobsim/site_manager.hpp"

#include <stdexcept>

namespace lobster::lobsim {

namespace {
// Evicted workers return after an exponential backoff with this mean.
constexpr double kRejoinMeanSeconds = 1800.0;
}  // namespace

SiteManager::SiteManager(des::Simulation& sim, const ClusterParams& cluster,
                         const util::Rng& rng)
    : sim_(sim),
      cores_per_worker_(std::max<std::size_t>(1, cluster.cores_per_worker)),
      rng_(rng) {
  // Site 0 is always the home campus; extra_sites are harvested alongside
  // it (paper §7), each with its own WAN path, squids and eviction climate.
  std::vector<SiteParams> site_params;
  SiteParams home;
  home.name = "home";
  home.target_cores = cluster.target_cores;
  home.ramp_seconds = cluster.ramp_seconds;
  home.availability = cluster.availability;
  home.evictions = cluster.evictions;
  home.num_squids = cluster.num_squids;
  home.squid = cluster.squid;
  home.federation = cluster.federation;
  site_params.push_back(home);
  for (const auto& s : cluster.extra_sites) site_params.push_back(s);

  for (std::size_t i = 0; i < site_params.size(); ++i) {
    const auto& p = site_params[i];
    if (p.num_squids == 0)
      throw std::invalid_argument("engine: site needs at least one squid");
    Site site;
    site.params = p;
    site.federation =
        std::make_unique<xrootd::FederationSim>(sim_, p.federation);
    for (std::size_t q = 0; q < p.num_squids; ++q)
      site.squids.push_back(std::make_unique<cvmfs::SquidSim>(sim_, p.squid));
    if (p.evictions)
      site.availability = make_availability_model(p.availability);
    else
      site.availability = std::make_unique<AlwaysAvailable>();
    sites_.push_back(std::move(site));
  }
  total_slots_ = 0;
  for (const auto& site : sites_) total_slots_ += site.params.target_cores;

  // Preallocate every site's dense node array up front: worker handles
  // index into stable storage for the whole run, and the per-node RNG
  // streams / replay phases are pure derivations (no rng_ state consumed),
  // so building them here is bit-identical to the old lazy construction
  // during the ramp.
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    Site& site = sites_[i];
    if (site.params.target_cores == 0) continue;
    const std::size_t num_workers = std::max<std::size_t>(
        1, site.params.target_cores / cores_per_worker_);
    site.nodes.resize(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      WorkerNode& node = site.nodes[w];
      node.id = w;
      node.site = i;
      node.rng = rng_.stream("node." + std::to_string(i), w);
      // Scatter trace-replay phases from the node's coordinates, not its
      // RNG stream, whose draws (survival times, rejoin back-offs) the
      // other climates use.
      std::uint64_t phase_state =
          (static_cast<std::uint64_t>(i) << 32) ^ w;
      node.avail_phase = util::splitmix64(phase_state);
      node.squid = w % site.squids.size();
    }
  }
}

void SiteManager::schedule_outage(double start, double duration) {
  for (auto& site : sites_) site.federation->schedule_outage(start, duration);
}

void SiteManager::start(SlotBody slot_body, DonePredicate done,
                        double time_cap) {
  slot_body_ = std::move(slot_body);
  done_ = std::move(done);
  time_cap_ = time_cap;
  for (std::size_t s = 0; s < sites_.size(); ++s)
    sim_.spawn(site_batch_system(s));
}

des::Process SiteManager::site_batch_system(std::size_t site_index) {
  const Site& site = sites_[site_index];
  const std::size_t num_workers = site.nodes.size();
  if (num_workers == 0) co_return;
  for (std::size_t w = 0; w < num_workers; ++w) {
    sim_.spawn(worker_life(NodeHandle{static_cast<std::uint32_t>(site_index),
                                      static_cast<std::uint32_t>(w)}));
    // Stagger worker arrivals across the site's ramp window.
    co_await sim_.delay(site.params.ramp_seconds /
                        static_cast<double>(num_workers));
    if (done_()) co_return;
  }
}

des::Process SiteManager::worker_life(NodeHandle handle) {
  // The dense node arrays never resize, so this reference stays valid
  // across every suspension below.
  WorkerNode& node = sites_[handle.site].nodes[handle.index];
  std::uint64_t incarnation = 0;
  while (!done_() && sim_.now() < time_cap_) {
    // A new life: fresh survival draw, cold cache.
    node.alive = true;
    node.death =
        sim_.now() + sites_[node.site].availability->sample_survival_at(
                         node.rng, sim_.now(),
                         node.avail_phase + incarnation);
    ++incarnation;
    node.cache_state = WorkerNode::CacheState::Cold;
    node.cache_round = sim_.make_event();
    node.slot_head_ready.assign(cores_per_worker_, false);
    node.cache_lock = std::make_unique<des::Resource>(sim_, 1);

    std::vector<des::ProcessRef> slots;
    slots.reserve(cores_per_worker_);
    for (std::size_t s = 0; s < cores_per_worker_; ++s)
      slots.push_back(sim_.spawn(slot_body_(handle, s)));
    for (auto& ref : slots) co_await ref.done();
    node.alive = false;
    if (done_()) co_return;
    // Evicted: the batch system hands the node back after a backoff.
    co_await sim_.delay(node.rng.exponential(kRejoinMeanSeconds));
  }
}

}  // namespace lobster::lobsim
