// master.hpp — the Work Queue master (paper §3): accepts tasks from the
// application (Lobster), hands them to pulling workers/foremen, and collects
// results.
//
// The master never pushes: workers "make a TCP connection back to the
// master, which sends tasks" — modelled here as a blocking pull on a shared
// channel, preserving the key property that dispatch is demand-driven and
// the master needs no knowledge of worker liveness.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>

#include "util/channel.hpp"
#include "util/thread_annotations.hpp"
#include "wq/task.hpp"

namespace lobster::wq {

class Master : public TaskSource {
 public:
  Master() = default;

  // ---- application side ----------------------------------------------------

  /// Queue a task for dispatch.  Returns false after close_submission().
  ///
  /// Contract for evicted work: a TaskResult marked evicted invites
  /// resubmission, but a resubmit that races close_submission() is
  /// REJECTED, not silently dropped — submit() returns false and the
  /// rejection is counted in rejected_resubmits().  An application that closes
  /// submission while evicted work is still in flight must either check
  /// submit()'s return value and handle the loss, or keep submission open
  /// until every eviction has been redispatched.
  bool submit(TaskSpec spec);
  /// No more submissions; workers drain the queue then see end-of-work.
  void close_submission();
  /// Blocking: next completed/evicted task; nullopt when all submitted
  /// tasks have been accounted for and submission is closed.
  std::optional<TaskResult> next_result();

  // ---- worker side (TaskSource) ---------------------------------------------

  std::optional<TaskSpec> next_task(std::chrono::milliseconds wait) override;
  bool drained() const override { return pending_.drained(); }
  void deliver(TaskResult result) override;

  // ---- stats ----------------------------------------------------------------

  [[nodiscard]] std::uint64_t submitted() const { return submitted_.load(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_.load(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_.load(); }
  /// Submissions refused because submission was already closed (typically
  /// an evicted task resubmitted after close_submission()).
  [[nodiscard]] std::uint64_t rejected_resubmits() const {
    return rejected_resubmits_.load();
  }
  [[nodiscard]] std::size_t queue_depth() const { return pending_.size(); }

 private:
  struct Stamped {
    TaskSpec spec;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Close results_ exactly once when submission is closed and every
  /// submitted task has been delivered.  Serialised by close_mutex_: the
  /// bare acq/rel checks previously done by close_submission() and
  /// deliver() could each see the other's half-finished state and both
  /// skip the close (a Dekker-style lost wakeup), leaving next_result()
  /// blocked forever.
  void maybe_close_results();

  util::Channel<Stamped> pending_ LOBSTER_NOT_GUARDED(internally synchronized);
  util::Channel<TaskResult> results_
      LOBSTER_NOT_GUARDED(internally synchronized);
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> rejected_resubmits_{0};
  std::atomic<bool> closed_{false};
  // Serializes the drained-check/close decision; results_.close() runs
  // under it, so it orders before the Channel lock (see DESIGN.md).
  std::mutex close_mutex_ LOBSTER_ACQUIRED_BEFORE(util::Channel::mutex_);
};

}  // namespace lobster::wq
