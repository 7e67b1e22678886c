// worker.hpp — a multi-slot Work Queue worker (paper §3): "a single worker
// can be configured to manage multiple cores on a machine, and run multiple
// tasks simultaneously, sharing a single cache directory, and a single
// connection to the master."
//
// Each slot is a real thread pulling tasks from the upstream TaskSource.
// Eviction — the defining event of non-dedicated resources — is injected
// with evict(): running tasks are cancelled cooperatively and reported
// upward with the Evicted exit code, exactly what the batch system does when
// "resource availability and scheduling policies dictate".
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"
#include "wq/task.hpp"

namespace lobster::wq {

class Worker {
 public:
  /// Start `slots` execution threads pulling from `source`.
  Worker(std::string name, TaskSource& source, std::size_t slots);
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  const std::string& name() const { return name_; }
  std::size_t slots() const { return threads_.size(); }

  /// Evict the worker: cancel everything in flight (reported as Evicted)
  /// and stop pulling new work.  Idempotent.
  void evict();

  /// Graceful stop: finish the current tasks, pull no more.  Joins threads.
  void shutdown();

  /// Block until every slot thread has exited (source drained or evicted).
  void join();

  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_.load(); }
  [[nodiscard]] bool evicted() const { return evicting_.load(); }
  /// The worker-wide input-file cache shared by all slots.
  const WorkerFileCache& file_cache() const { return file_cache_; }

 private:
  void slot_loop(std::size_t slot);

  std::string name_ LOBSTER_NOT_GUARDED(immutable after construction);
  TaskSource& source_ LOBSTER_NOT_GUARDED(immutable after construction);
  std::atomic<bool> evicting_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> tasks_run_{0};
  // Each task gets a fresh token (a payload may cancel its own token, and
  // that must not poison later tasks on the slot); evict() cancels whatever
  // tokens are current.
  std::mutex tokens_mutex_;
  std::vector<CancelToken> slot_tokens_ LOBSTER_GUARDED_BY(tokens_mutex_);
  WorkerFileCache file_cache_ LOBSTER_NOT_GUARDED(internally synchronized);
  std::vector<std::thread> threads_
      LOBSTER_NOT_GUARDED(written only in ctor and join/shutdown);
};

}  // namespace lobster::wq
