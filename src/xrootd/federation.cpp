#include "xrootd/federation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lobster::xrootd {

void RedirectorTable::add_replica(const std::string& lfn,
                                  const std::string& site) {
  if (lfn.empty() || site.empty())
    throw std::invalid_argument("redirector: empty lfn or site");
  replicas_[lfn].push_back(site);
}

std::vector<std::string> RedirectorTable::locate(const std::string& lfn) const {
  const auto it = replicas_.find(lfn);
  if (it == replicas_.end()) return {};
  return it->second;
}

std::optional<std::string> RedirectorTable::pick(const std::string& lfn) {
  const auto it = replicas_.find(lfn);
  if (it == replicas_.end() || it->second.empty()) return std::nullopt;
  const std::size_t i = next_[lfn]++ % it->second.size();
  return it->second[i];
}

FederationSim::FederationSim(des::Simulation& sim, const Params& params)
    : sim_(sim),
      params_(params),
      ctr_streams_(&sim.counters().counter("xrootd.federation.streams")),
      ctr_stages_(&sim.counters().counter("xrootd.federation.stages")),
      ctr_failed_opens_(&sim.counters().counter("xrootd.federation.failed_opens")),
      ctr_outages_(&sim.counters().counter("xrootd.federation.outages")),
      ctr_bytes_streamed_(&sim.counters().gauge("xrootd.federation.bytes_streamed")),
      ctr_bytes_staged_(&sim.counters().gauge("xrootd.federation.bytes_staged")) {
  // A zero campus uplink would build a dead path on which every open fails
  // as if the network were out: a config error, not an outage.
  const auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
  const auto delay = [](double v) { return v >= 0.0 && std::isfinite(v); };
  if (!positive(params_.campus_uplink_rate))
    throw std::invalid_argument("federation: bad campus_uplink_rate");
  if (!positive(params_.per_stream_rate))
    throw std::invalid_argument("federation: bad per_stream_rate");
  if (!delay(params_.open_latency))
    throw std::invalid_argument("federation: bad open_latency");
  if (!delay(params_.open_fail_delay))
    throw std::invalid_argument("federation: bad open_fail_delay");
  if (params_.paths.empty()) {
    // The campus path: the shared uplink alone, no trunk hop.
    params_.paths.push_back({"campus", params_.campus_uplink_rate, 0});
  } else {
    if (params_.trunks.empty())
      throw std::invalid_argument("federation: paths require trunks");
    for (const Params::Trunk& t : params_.trunks) {
      if (t.rate <= 0.0)
        throw std::invalid_argument("federation: bad trunk rate");
      trunk_links_.push_back(std::make_unique<des::BandwidthLink>(sim, t.rate));
    }
    for (const Params::Path& p : params_.paths)
      if (p.uplink_rate <= 0.0 || p.trunk >= params_.trunks.size())
        throw std::invalid_argument("federation: bad path");
  }
  for (const Params::Path& p : params_.paths) {
    path_links_.push_back(
        std::make_unique<des::BandwidthLink>(sim, p.uplink_rate));
    des::BandwidthLink* uplink = path_links_.back().get();
    hops_.push_back({uplink, trunk_links_.empty()
                                 ? uplink
                                 : trunk_links_[p.trunk].get()});
  }
  path_outage_depth_.assign(params_.paths.size(), 0);
  path_epoch_.assign(params_.paths.size(), 0);
  path_bytes_.assign(params_.paths.size(), 0.0);
}

bool FederationSim::path_down(std::size_t path) const {
  return outage_depth_ > 0 || path_outage_depth_[path] > 0;
}

void FederationSim::schedule_outage(double start, double duration) {
  if (start < 0.0 || duration <= 0.0)
    throw std::invalid_argument("federation: bad outage window");
  sim_.schedule(start, [this] {
    ++outage_counter_;
    ctr_outages_->add();
    sim_.tracer().instant("xrootd", "outage_begin");
    if (outage_depth_++ == 0) {
      // Global event: every site uplink drops (a path already down from
      // its own outage stays at zero either way).
      for (std::size_t i = 0; i < path_links_.size(); ++i)
        path_links_[i]->set_capacity(0.0);
    }
  });
  sim_.schedule(start + duration, [this] {
    if (--outage_depth_ == 0) {
      for (std::size_t i = 0; i < path_links_.size(); ++i)
        if (path_outage_depth_[i] == 0)
          path_links_[i]->set_capacity(params_.paths[i].uplink_rate);
      sim_.tracer().instant("xrootd", "outage_end");
    }
  });
}

void FederationSim::schedule_path_outage(std::size_t path, double start,
                                         double duration) {
  if (path >= path_links_.size())
    throw std::invalid_argument("federation: path outage on unknown path");
  if (start < 0.0 || duration <= 0.0)
    throw std::invalid_argument("federation: bad outage window");
  sim_.schedule(start, [this, path] {
    ++path_epoch_[path];  // streams in flight on this path break
    sim_.tracer().instant("xrootd", "path_outage_begin");
    if (path_outage_depth_[path]++ == 0 && outage_depth_ == 0)
      path_links_[path]->set_capacity(0.0);
  });
  sim_.schedule(start + duration, [this, path] {
    if (--path_outage_depth_[path] == 0 && outage_depth_ == 0) {
      path_links_[path]->set_capacity(params_.paths[path].uplink_rate);
      sim_.tracer().instant("xrootd", "path_outage_end");
    }
  });
}

std::size_t FederationSim::pick_path() const {
  const std::size_t n = hops_.size();
  if (outage_depth_ > 0) return n;
  if (params_.path_policy == PathPolicy::FirstAvailable) {
    for (std::size_t i = 0; i < n; ++i)
      if (!path_down(i)) return i;
    return n;
  }
  // LeastLoaded: rank by the most-loaded hop.  Load is estimated as
  // per_stream_rate * active_flows / capacity rather than the solved
  // allocation — active_flows() updates the moment a flow joins, so a
  // same-timestamp dispatch burst spreads across paths instead of piling
  // onto whichever looked empty at the last solve; past saturation the
  // same figure ranks paths by queue depth.  A link with no capacity
  // loads infinitely, so it never wins.
  const double inf = std::numeric_limits<double>::infinity();
  const double per_stream = params_.per_stream_rate;
  const auto load = [per_stream, inf](const des::BandwidthLink& l) {
    const double cap = l.capacity();
    return cap > 0.0 ? per_stream * static_cast<double>(l.active_flows()) / cap
                     : inf;
  };
  // Key (most-loaded hop, uplink) in lexicographic order; ties go to the
  // lowest index.  The uplink tiebreak matters because a shared trunk
  // contributes the same load to every path feeding it: without it a
  // saturated trunk would pin every pick to the lowest index.  Selects
  // rather than branches, since the winner is unpredictable.
  std::size_t best = n;
  double best_hop = inf;
  double best_up = inf;
  for (std::size_t i = 0; i < n; ++i) {
    const double up = load(*hops_[i].uplink);
    const double hop = std::max(up, load(*hops_[i].trunk));
    const bool wins = (path_outage_depth_[i] == 0) &
                      ((hop < best_hop) | ((hop == best_hop) & (up < best_up)));
    best = wins ? i : best;
    best_hop = wins ? hop : best_hop;
    best_up = wins ? up : best_up;
  }
  return best;
}

des::Task<double> FederationSim::transfer(double bytes, double& accounting,
                                          util::Gauge* volume) {
  const double t0 = sim_.now();
  // The redirector picks a path per the policy; the stream occupies that
  // path's uplink AND its shared WAN trunk simultaneously and completes
  // when the slower hop drains (fluid series approximation — each hop
  // max-min-shares its own capacity among the flows crossing it).
  const std::size_t p = pick_path();
  if (p == path_links_.size()) {
    ++failed_opens_;
    ctr_failed_opens_->add();
    co_await sim_.delay(params_.open_fail_delay);
    throw AccessError("xrootd: open failed (no path up)");
  }
  const std::uint64_t epoch = outage_counter_ + path_epoch_[p];
  co_await sim_.delay(params_.open_latency);
  // An empty transfer starts no flow; a NaN size reaches start_flow, which
  // rejects it.
  if (!(bytes <= 0.0)) {
    const Hops& hops = hops_[p];
    auto up_done = hops.uplink->start_flow(bytes, params_.per_stream_rate);
    auto trunk_done =
        hops.trunk != hops.uplink
            ? hops.trunk->start_flow(bytes, params_.per_stream_rate)
            : nullptr;
    co_await *up_done;
    if (trunk_done) co_await *trunk_done;
  }
  if (outage_counter_ + path_epoch_[p] != epoch) {
    // An outage began while this stream was in flight: the connection
    // broke, and the fluid-model bytes that trickled through are moot —
    // the task sees a read error after the stall.
    throw AccessError("xrootd: stream broken by outage");
  }
  accounting += bytes;
  volume->add(bytes);
  path_bytes_[p] += bytes;
  co_return sim_.now() - t0;
}

des::Task<double> FederationSim::stream(double bytes) {
  ctr_streams_->add();
  return transfer(bytes, bytes_streamed_, ctr_bytes_streamed_);
}

des::Task<double> FederationSim::stage(double bytes) {
  ctr_stages_->add();
  return transfer(bytes, bytes_staged_, ctr_bytes_staged_);
}

void SiteStore::put(const std::string& lfn, double bytes) {
  if (bytes < 0.0) throw std::invalid_argument("site: negative size");
  files_[lfn] = bytes;
}

bool SiteStore::has(const std::string& lfn) const {
  return files_.count(lfn) > 0;
}

double SiteStore::open(const std::string& lfn) const {
  const auto it = files_.find(lfn);
  if (it == files_.end())
    throw AccessError("xrootd: " + name_ + " has no replica of " + lfn);
  return it->second;
}

void Client::attach_site(std::shared_ptr<SiteStore> site) {
  sites_[site->name()] = std::move(site);
}

std::pair<std::string, double> Client::read(const std::string& lfn) {
  const auto site = redirector_->pick(lfn);
  if (!site) throw AccessError("xrootd: no replica registered for " + lfn);
  const auto it = sites_.find(*site);
  if (it == sites_.end())
    throw AccessError("xrootd: site " + *site + " not attached");
  return {*site, it->second->open(lfn)};
}

}  // namespace lobster::xrootd
