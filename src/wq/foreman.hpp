// foreman.hpp — an intermediate rank between master and workers (paper §3):
// "the number of workers can be increased by introducing foremen between
// the master and the workers to create a hierarchy of arbitrary width and
// depth.  In this work, we use one intermediate rank of four foremen
// driving a variable number of workers managing eight cores each."
//
// A Foreman is simultaneously a consumer of its upstream TaskSource and a
// TaskSource for its own workers (or further foremen) — so foremen compose
// into trees of arbitrary depth: a Foreman whose upstream is another
// Foreman forms a depth-2 relay, and each level keeps its own bounded
// prefetch window.  A pump thread prefetches that window so downstream
// pulls are served from local state — spreading the load of sending out
// sandboxes, which is exactly the remedy the monitoring section recommends
// for "long sandbox stage-in times" (paper §5).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "util/channel.hpp"
#include "wq/task.hpp"

namespace lobster::wq {

class Foreman : public TaskSource {
 public:
  /// Prefetch up to `window` tasks from `upstream`.
  Foreman(std::string name, TaskSource& upstream, std::size_t window = 64);
  ~Foreman() override;
  Foreman(const Foreman&) = delete;
  Foreman& operator=(const Foreman&) = delete;

  const std::string& name() const { return name_; }

  // ---- TaskSource for downstream workers ------------------------------------
  std::optional<TaskSpec> next_task(std::chrono::milliseconds wait) override;
  /// Drained once the local window is closed and empty.
  bool drained() const override;
  void deliver(TaskResult result) override;

  /// Stop pumping and release downstream pullers.  Called automatically on
  /// destruction; safe to call early.  Reports still-buffered tasks upward
  /// as evicted.
  void shutdown();

  // ---- per-foreman ledger ----------------------------------------------------
  // Every task accepted into the local window (counted `relayed`) leaves it
  // exactly one way: dispatched to a worker or evicted at shutdown.  At
  // quiescence:
  //   tasks_relayed() == tasks_dispatched() + tasks_evicted()
  // A task whose bounded send is interrupted by shutdown never enters the
  // window: it is reported evicted upstream but appears in no local ledger.
  [[nodiscard]] std::uint64_t tasks_relayed() const { return relayed_.load(); }
  [[nodiscard]] std::uint64_t tasks_dispatched() const {
    return dispatched_.load();
  }
  [[nodiscard]] std::uint64_t tasks_evicted() const { return evicted_.load(); }
  [[nodiscard]] std::uint64_t results_relayed() const { return results_.load(); }

 private:
  void pump();

  std::string name_;
  TaskSource& upstream_;
  util::Channel<TaskSpec> local_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> relayed_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> results_{0};
  std::thread pump_thread_;
};

}  // namespace lobster::wq
