// squid.hpp — the HTTP proxy cache layer between worker nodes and the CVMFS
// repository (paper §4.3, Figure 5).
//
// Two implementations share the same semantics:
//
//  * SquidProxy — a real, thread-safe LRU object cache with an upstream
//    fetcher, usable as the Fetcher of a cvmfs::CacheGroup.  Used by the
//    wq:: runtime and the multithreaded tests.
//
//  * SquidSim — a DES cost model: limited concurrent connections, a shared
//    service link (proxy NIC/disk), and a slower upstream link to the
//    stratum server for misses.  Saturation of the service link is what
//    produces the Figure 5 knee ("one proxy cache can support approximately
//    1000 hot worker caches") and the cold-start overhead peak in the 20k
//    simulation run (Figure 11).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cvmfs/parrot_cache.hpp"
#include "cvmfs/repository.hpp"
#include "des/bandwidth.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "des/task.hpp"
#include "util/thread_annotations.hpp"

namespace lobster::cvmfs {

/// Real in-process squid: LRU object cache with byte capacity.
class SquidProxy {
 public:
  /// `capacity_bytes` bounds the cache; `upstream` resolves misses (e.g. the
  /// repository itself, or another proxy tier).
  SquidProxy(double capacity_bytes, Fetcher upstream);

  /// Serve an object: cache hit or upstream fetch + insert (with LRU
  /// eviction).  Thread safe.
  Digest fetch(const FileObject& obj);

  /// Adapter so a SquidProxy can be plugged in wherever a Fetcher is needed.
  Fetcher as_fetcher();

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] double bytes_served() const;    ///< total volume delivered to clients
  [[nodiscard]] double bytes_upstream() const;  ///< volume pulled from upstream (misses)
  [[nodiscard]] double resident_bytes() const;

 private:
  void touch_locked(const std::string& path) LOBSTER_REQUIRES(mutex_);
  void evict_locked() LOBSTER_REQUIRES(mutex_);

  struct Entry {
    Digest digest;
    double bytes = 0.0;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mutex_;
  double capacity_bytes_ LOBSTER_NOT_GUARDED(immutable after construction);
  Fetcher upstream_ LOBSTER_NOT_GUARDED(immutable after construction);
  std::unordered_map<std::string, Entry> cache_ LOBSTER_GUARDED_BY(mutex_);
  // front = most recent
  std::list<std::string> lru_ LOBSTER_GUARDED_BY(mutex_);
  double resident_bytes_ LOBSTER_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t hits_ LOBSTER_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ LOBSTER_GUARDED_BY(mutex_) = 0;
  double bytes_served_ LOBSTER_GUARDED_BY(mutex_) = 0.0;
  double bytes_upstream_ LOBSTER_GUARDED_BY(mutex_) = 0.0;
};

/// DES model of a squid proxy.
class SquidSim {
 public:
  struct Params {
    /// Concurrent connections the proxy accepts; excess requests queue.
    std::int64_t max_connections = 512;
    /// Aggregate service rate of the proxy (NIC + disk), bytes/s.
    double service_rate = 1.25e9;  // 10 Gbit/s
    /// Upstream (stratum) path for cache misses, bytes/s.
    double upstream_rate = 1.25e8;  // 1 Gbit/s
    /// Fixed per-request overhead (connection setup, catalog lookups).
    double request_latency = 0.05;
    /// Requests queued beyond this time out and fail (paper §6: "timeouts
    /// in connecting to the squid proxy cache" are the dominant failure at
    /// 20k scale).  <= 0 disables.
    double connect_timeout = 0.0;
    /// Overload thrash: the Figure 5 knee.  A proxy past its comfortable
    /// connection count stops being work-conserving — TCP retransmits,
    /// aborted-and-retried segments, and connection-table churn mean each
    /// object costs more than its size to deliver.  A request admitted
    /// while `in_use > thrash_knee` pays an inflated service volume of
    /// bytes * (1 + thrash * (in_use - knee) / knee), sampled at admission
    /// (deterministic — no RNG, no mid-flight re-rating).  The inflation is
    /// bounded by max_connections, so an overloaded proxy degrades instead
    /// of livelocking.  thrash_knee <= 0 or thrash <= 0 disables.
    double thrash = 0.0;
    std::int64_t thrash_knee = 0;
  };

  SquidSim(des::Simulation& sim, const Params& params);

  /// Fetch `bytes` of objects through the proxy.  `cached` says whether the
  /// proxy already holds them (the caller's cold/hot bookkeeping or a real
  /// path set decides).  Returns the time spent; throws TimeoutError when
  /// the connect_timeout is exceeded before a connection becomes available.
  struct TimeoutError : std::runtime_error {
    TimeoutError() : std::runtime_error("squid: connect timeout") {}
  };
  des::Task<double> fetch(double bytes, bool proxy_hit);

  /// Track proxy-side object cache by path: returns true if this path was
  /// already requested through this proxy (so the proxy has it).
  bool note_request(const std::string& path);

  des::Resource& connections() { return connections_; }
  des::BandwidthLink& service_link() { return service_link_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t requests() const { return requests_; }

 private:
  des::Simulation& sim_;
  Params params_;
  des::Resource connections_;
  des::BandwidthLink service_link_;
  des::BandwidthLink upstream_link_;
  std::unordered_map<std::string, bool> seen_;
  std::uint64_t timeouts_ = 0;
  std::uint64_t requests_ = 0;
  // Unified counter plane (cvmfs.squid.*); all squids of a simulation share
  // the same named counters.
  util::Counter* ctr_requests_;
  util::Counter* ctr_hits_;
  util::Counter* ctr_misses_;
  util::Counter* ctr_timeouts_;
  util::Gauge* ctr_bytes_served_;
  util::Gauge* ctr_bytes_upstream_;
  util::Gauge* ctr_bytes_thrashed_;
};

}  // namespace lobster::cvmfs
