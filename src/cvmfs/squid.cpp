#include "cvmfs/squid.hpp"

#include <stdexcept>

namespace lobster::cvmfs {

SquidProxy::SquidProxy(double capacity_bytes, Fetcher upstream)
    : capacity_bytes_(capacity_bytes), upstream_(std::move(upstream)) {
  if (capacity_bytes_ <= 0.0)
    throw std::invalid_argument("SquidProxy: capacity must be positive");
  if (!upstream_) throw std::invalid_argument("SquidProxy: null upstream");
}

Digest SquidProxy::fetch(const FileObject& obj) {
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(obj.path);
    if (it != cache_.end()) {
      touch_locked(obj.path);
      ++hits_;
      bytes_served_ += obj.size_bytes;
      return it->second.digest;
    }
  }
  // Miss: fetch outside the lock (upstream may block); multiple concurrent
  // misses for the same object are possible, like a real squid under
  // thundering-herd load — the second insert is a no-op.
  const Digest d = upstream_(obj);
  {
    std::lock_guard lock(mutex_);
    ++misses_;
    bytes_served_ += obj.size_bytes;
    bytes_upstream_ += obj.size_bytes;
    if (cache_.find(obj.path) == cache_.end()) {
      lru_.push_front(obj.path);
      cache_[obj.path] = Entry{d, obj.size_bytes, lru_.begin()};
      resident_bytes_ += obj.size_bytes;
      evict_locked();
    }
  }
  return d;
}

Fetcher SquidProxy::as_fetcher() {
  return [this](const FileObject& obj) { return fetch(obj); };
}

void SquidProxy::touch_locked(const std::string& path) {
  auto& entry = cache_.at(path);
  lru_.erase(entry.lru_it);
  lru_.push_front(path);
  entry.lru_it = lru_.begin();
}

void SquidProxy::evict_locked() {
  while (resident_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    const auto it = cache_.find(victim);
    resident_bytes_ -= it->second.bytes;
    cache_.erase(it);
    lru_.pop_back();
  }
}

std::uint64_t SquidProxy::hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t SquidProxy::misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

double SquidProxy::bytes_served() const {
  std::lock_guard lock(mutex_);
  return bytes_served_;
}

double SquidProxy::bytes_upstream() const {
  std::lock_guard lock(mutex_);
  return bytes_upstream_;
}

double SquidProxy::resident_bytes() const {
  std::lock_guard lock(mutex_);
  return resident_bytes_;
}

SquidSim::SquidSim(des::Simulation& sim, const Params& params)
    : sim_(sim),
      params_(params),
      connections_(sim, params.max_connections),
      service_link_(sim, params.service_rate),
      upstream_link_(sim, params.upstream_rate),
      ctr_requests_(&sim.counters().counter("cvmfs.squid.requests")),
      ctr_hits_(&sim.counters().counter("cvmfs.squid.hits")),
      ctr_misses_(&sim.counters().counter("cvmfs.squid.misses")),
      ctr_timeouts_(&sim.counters().counter("cvmfs.squid.timeouts")),
      ctr_bytes_served_(&sim.counters().gauge("cvmfs.squid.bytes_served")),
      ctr_bytes_upstream_(&sim.counters().gauge("cvmfs.squid.bytes_upstream")),
      ctr_bytes_thrashed_(
          &sim.counters().gauge("cvmfs.squid.bytes_thrashed")) {}

bool SquidSim::note_request(const std::string& path) {
  auto [it, inserted] = seen_.emplace(path, true);
  return !inserted;
}

des::Task<double> SquidSim::fetch(double bytes, bool proxy_hit) {
  ++requests_;
  ctr_requests_->add();
  if (proxy_hit)
    ctr_hits_->add();
  else
    ctr_misses_->add();
  const double t0 = sim_.now();
  auto slot = co_await connections_.acquire();
  const double waited = sim_.now() - t0;
  // Timeout model: a client that had to wait longer than connect_timeout
  // for a connection has long since given up; we account the failure when
  // the slot finally frees.  This keeps FIFO admission exact while
  // reproducing the "squid timeout" failure mode of the 20k-core run.
  if (params_.connect_timeout > 0.0 && waited > params_.connect_timeout) {
    ++timeouts_;
    ctr_timeouts_->add();
    slot.release();
    throw TimeoutError();
  }
  co_await sim_.delay(params_.request_latency);
  if (!proxy_hit) {
    co_await upstream_link_.transfer(bytes);
    ctr_bytes_upstream_->add(bytes);
  }
  // Overload thrash (the Figure 5 knee): a request admitted past the knee
  // pays retransmit-inflated service volume.  bytes_served deliberately
  // counts the inflated total — that is what the proxy NIC actually moved.
  double service_bytes = bytes;
  if (params_.thrash > 0.0 && params_.thrash_knee > 0) {
    const std::int64_t over = connections_.in_use() - params_.thrash_knee;
    if (over > 0)
      service_bytes *= 1.0 + params_.thrash * static_cast<double>(over) /
                                 static_cast<double>(params_.thrash_knee);
  }
  // The waste counter ticks at admission, before the inflated transfer
  // drains: the advisor's windowed rate then sees the overload while it is
  // still live, not a transfer-time later.
  if (service_bytes > bytes) ctr_bytes_thrashed_->add(service_bytes - bytes);
  co_await service_link_.transfer(service_bytes);
  ctr_bytes_served_->add(service_bytes);
  co_return sim_.now() - t0;
}

}  // namespace lobster::cvmfs
