// federation.hpp — the "Any Data, Anytime, Anywhere" (AAA) data federation
// (paper §2, §4.2) built on the XrootD access model:
//
//   * a redirector maps a logical file name (LFN) to the physical site(s)
//     holding replicas;
//   * jobs on opportunistic resources *stream* input data over the WAN from
//     those sites, or *stage* whole files in before running;
//   * every byte crosses the shared campus uplink — 10 Gbit/s at Notre Dame,
//     fully saturated during the Figure 10 data processing run;
//   * the wide-area path suffers transient outages (the failure burst in
//     the middle of Figure 10).
//
// FederationSim is the DES model used at 10k-core scale; RedirectorTable is
// the real lookup structure behind the in-process Client that the wq::
// runtime examples use.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "des/bandwidth.hpp"
#include "des/simulation.hpp"
#include "des/task.hpp"
#include "util/rng.hpp"

namespace lobster::xrootd {

/// Replica location lookup: LFN -> site names.  Deterministic: queries pick
/// replicas round-robin per LFN.
class RedirectorTable {
 public:
  void add_replica(const std::string& lfn, const std::string& site);
  /// All sites holding the file (empty when unknown).
  std::vector<std::string> locate(const std::string& lfn) const;
  /// Pick one replica (round-robin across calls); nullopt when unknown.
  std::optional<std::string> pick(const std::string& lfn);
  [[nodiscard]] std::size_t num_files() const { return replicas_.size(); }

 private:
  std::map<std::string, std::vector<std::string>> replicas_;
  std::map<std::string, std::size_t> next_;
};

/// Thrown when a file is opened while the wide-area path is down, or the
/// LFN is unknown to the redirector.
struct AccessError : std::runtime_error {
  explicit AccessError(const std::string& what) : std::runtime_error(what) {}
};

/// How the redirector chooses among multiple wide-area paths.
enum class PathPolicy {
  /// Pick the path whose most-loaded hop (uplink or trunk) has the lowest
  /// utilization; skip paths that are down.  The sensible default.
  LeastLoaded,
  /// Always pick the first path that is up.  Deliberately naive: models the
  /// redirector-hotspot failure mode (every client piles onto one site
  /// while the others idle) exercised by bench/fig16_200gbps_ramp.
  FirstAvailable,
};

/// DES model of the federation as seen from one campus.
class FederationSim {
 public:
  struct Params {
    /// Shared campus uplink: the one path when `paths` is empty (every
    /// WAN transfer contends there).
    double campus_uplink_rate = 1.25e9;  // 10 Gbit/s
    /// Per-flow ceiling (server/TCP stream limit).
    double per_stream_rate = 3.0e7;  // ~30 MB/s per stream
    /// Redirector lookup + TCP/auth setup per open.
    double open_latency = 1.0;
    /// When a file is opened during an outage the client errors out after
    /// this long instead of hanging.
    double open_fail_delay = 30.0;

    /// Multi-path topology (200 Gbps data plane).  Every transfer picks a
    /// path per `path_policy` and occupies both the path's site uplink and
    /// its shared WAN trunk; completion waits for the slowest hop (fluid
    /// series approximation).  When `paths` is empty the federation has
    /// one path of its own: the campus uplink above, with no trunk hop.
    struct Trunk {
      std::string name;
      double rate = 0.0;  // bytes/s
    };
    struct Path {
      std::string name;
      double uplink_rate = 0.0;       // bytes/s, this site's uplink
      std::size_t trunk = 0;          // index into `trunks`
    };
    std::vector<Trunk> trunks;
    std::vector<Path> paths;
    PathPolicy path_policy = PathPolicy::LeastLoaded;
  };

  /// Throws std::invalid_argument on a non-positive or non-finite campus
  /// uplink or per-stream rate, a negative or non-finite open delay, or a
  /// bad multi-path topology.
  FederationSim(des::Simulation& sim, const Params& params);

  /// Declare an outage window [start, start+duration): opens fail, and
  /// transfers in flight when the outage begins error out once the network
  /// path unblocks (the TCP streams broke — their tasks lose the work).
  /// A global event: every path's uplink drops.
  void schedule_outage(double start, double duration);
  /// Collapse one site's uplink for [start, start+duration): streams on
  /// that path break, opens re-route to surviving paths.
  void schedule_path_outage(std::size_t path, double start, double duration);
  bool path_down(std::size_t path) const;
  std::uint64_t outages_started() const { return outage_counter_; }

  /// Stream `bytes` into a running task.  Models read-as-you-go access: the
  /// transfer shares the campus uplink, capped per stream.  Returns wall
  /// time spent streaming.  Throws AccessError when opened during an
  /// outage.
  des::Task<double> stream(double bytes);

  /// Stage a whole file before execution (WQ / Chirp modes pay this up
  /// front).  Identical network path; kept separate for accounting.
  des::Task<double> stage(double bytes);

  /// The first path's uplink: the campus uplink when no paths are set.
  des::BandwidthLink& uplink() { return path_link(0); }
  [[nodiscard]] double bytes_streamed() const { return bytes_streamed_; }
  [[nodiscard]] double bytes_staged() const { return bytes_staged_; }
  std::uint64_t failed_opens() const { return failed_opens_; }

  // Path accessors (num_paths() == 1 when no paths are set).
  [[nodiscard]] std::size_t num_paths() const { return path_links_.size(); }
  des::BandwidthLink& path_link(std::size_t i) { return *path_links_[i]; }
  des::BandwidthLink& trunk_link(std::size_t i) { return *trunk_links_[i]; }
  /// Bytes delivered over path i (streams + stages), for per-site
  /// throughput breakdowns.
  [[nodiscard]] double path_bytes(std::size_t i) const {
    return path_bytes_[i];
  }

  /// The path the next open takes per the configured policy; num_paths()
  /// when every path is down.
  [[nodiscard]] std::size_t pick_path() const;

 private:
  /// The links an open on one path occupies.  The campus path has no trunk
  /// hop and names its uplink twice, so its most-loaded hop is the uplink.
  struct Hops {
    des::BandwidthLink* uplink;
    des::BandwidthLink* trunk;
  };

  des::Task<double> transfer(double bytes, double& accounting,
                             util::Gauge* volume);

  des::Simulation& sim_;
  Params params_;
  // One uplink per path plus the shared trunks they feed (unique_ptr:
  // BandwidthLink is non-movable), and per path the two it occupies.
  std::vector<std::unique_ptr<des::BandwidthLink>> path_links_;
  std::vector<std::unique_ptr<des::BandwidthLink>> trunk_links_;
  std::vector<Hops> hops_;
  std::vector<int> path_outage_depth_;
  std::vector<std::uint64_t> path_epoch_;
  std::vector<double> path_bytes_;
  int outage_depth_ = 0;
  std::uint64_t outage_counter_ = 0;
  double bytes_streamed_ = 0.0;
  double bytes_staged_ = 0.0;
  std::uint64_t failed_opens_ = 0;
  // Unified counter plane (xrootd.*).
  util::Counter* ctr_streams_;
  util::Counter* ctr_stages_;
  util::Counter* ctr_failed_opens_;
  util::Counter* ctr_outages_;
  util::Gauge* ctr_bytes_streamed_;
  util::Gauge* ctr_bytes_staged_;
};

// ---------------------------------------------------------------------------
// Real in-process federation (used by the thread-based wq:: runtime and the
// examples): an in-memory replica store behind the same redirector lookup.
// ---------------------------------------------------------------------------

/// A site's storage: LFN -> deterministic content token (size + digest).
class SiteStore {
 public:
  explicit SiteStore(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void put(const std::string& lfn, double bytes);
  bool has(const std::string& lfn) const;
  /// Size in bytes; throws AccessError when absent.
  double open(const std::string& lfn) const;

 private:
  std::string name_;
  std::map<std::string, double> files_;
};

/// Client facade: locate via the redirector, read from the chosen site.
class Client {
 public:
  explicit Client(RedirectorTable& redirector) : redirector_(&redirector) {}

  void attach_site(std::shared_ptr<SiteStore> site);
  /// Resolve and "read" an LFN; returns (site, bytes).  Throws AccessError
  /// when no replica is registered or the site store lacks the file.
  std::pair<std::string, double> read(const std::string& lfn);

 private:
  RedirectorTable* redirector_;
  std::map<std::string, std::shared_ptr<SiteStore>> sites_;
};

}  // namespace lobster::xrootd
