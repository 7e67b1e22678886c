// resource.hpp — counted resource with FIFO admission, the DES analogue of a
// server with a concurrency limit.  Used to model squid proxy slots, Chirp
// server connection limits, worker cores, and HDFS datanode service slots.
//
//   des::Resource squid(sim, /*capacity=*/200);
//   {
//     auto slot = co_await squid.acquire();   // RAII token
//     co_await sim.delay(service_time);
//   }                                         // released here
//
// Admission is strictly FIFO: a large request at the head blocks later small
// ones, which prevents starvation of multi-unit requests.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "des/simulation.hpp"

namespace lobster::des {

class Resource;

/// RAII grant of `amount` units; releases on destruction (or explicitly).
class [[nodiscard]] ResourceToken {
 public:
  ResourceToken() = default;
  ResourceToken(Resource* res, std::int64_t amount)
      : res_(res), amount_(amount) {}
  ResourceToken(ResourceToken&& o) noexcept
      : res_(o.res_), amount_(o.amount_) {
    o.res_ = nullptr;
    o.amount_ = 0;
  }
  ResourceToken& operator=(ResourceToken&& o) noexcept;
  ResourceToken(const ResourceToken&) = delete;
  ResourceToken& operator=(const ResourceToken&) = delete;
  ~ResourceToken() { release(); }

  void release();
  bool held() const { return res_ != nullptr; }
  std::int64_t amount() const { return amount_; }

 private:
  Resource* res_ = nullptr;
  std::int64_t amount_ = 0;
};

class Resource {
 public:
  Resource(Simulation& sim, std::int64_t capacity);
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t in_use() const { return capacity_ - available_; }

  /// Grow/shrink capacity at runtime (used for elastic clusters).  Shrinking
  /// below in_use is allowed; available goes negative until releases catch
  /// up.
  void set_capacity(std::int64_t capacity);

  struct Awaiter {
    Resource* res;
    std::int64_t amount;
    bool suspended = false;
    bool await_ready() const noexcept {
      return res->waiters_.empty() && res->available_ >= amount;
    }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      res->waiters_.push_back({amount, h});
    }
    ResourceToken await_resume() noexcept {
      // If we suspended, grant_waiters() already reserved our units before
      // resuming us; otherwise we take them now.
      if (!suspended) res->available_ -= amount;
      return ResourceToken(res, amount);
    }
  };

  /// Acquire `amount` units, waiting FIFO if necessary.
  Awaiter acquire(std::int64_t amount = 1) { return Awaiter{this, amount}; }

  /// Non-coroutine acquisition attempt (for callback-style users).
  bool try_acquire(std::int64_t amount = 1);
  void release(std::int64_t amount = 1);

 private:
  friend struct Awaiter;
  friend class ResourceToken;

  struct Waiter {
    std::int64_t amount;
    std::coroutine_handle<> handle;
  };

  void grant_waiters();

  Simulation& sim_;
  std::int64_t capacity_;
  std::int64_t available_;
  std::deque<Waiter> waiters_;
};

}  // namespace lobster::des
