// scheduler.hpp — the main Lobster process (paper §3, Figure 1).
//
// "An execution begins with the main Lobster process that is invoked by the
// user to initiate a workload. ... The main Lobster process creates an
// instance of a master, generates individual tasks, records them in the
// Lobster DB, and then submits the tasks to the master."
//
// The Scheduler drives a workflow against the real (thread-based) Work
// Queue runtime:
//   * keeps a buffer of dispatched tasks topped up (paper: 400);
//   * groups pending tasklets into tasks of the configured size;
//   * resubmits the tasklets of evicted/failed tasks (until max_attempts);
//   * plans merge tasks in the configured mode (interleaved merges run
//     concurrently with analysis once the workflow is >= 10% processed);
//   * feeds every finished task into the Lobster DB and the Monitor;
//   * optionally adapts the task size to the observed eviction rate —
//     the "automatic performance optimization through dynamic adjustment of
//     task size" the paper names as future work (§8).
//
// The application payload is injected through callbacks, keeping the
// scheduler free of any experiment-specific code (paper §7 calls out this
// separation as the path to non-CMS use).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/db.hpp"
#include "core/merge.hpp"
#include "core/monitor.hpp"
#include "core/workflow.hpp"
#include "core/wrapper.hpp"
#include "wq/master.hpp"

namespace lobster::core {

/// Builds the wrapper stages for an analysis task over `tasklets`.
using AnalysisPayload =
    std::function<WrapperStages(const std::vector<Tasklet>& tasklets)>;
/// Builds the wrapper stages for a merge task over `outputs`.
using MergePayload =
    std::function<WrapperStages(const MergeGroup& group,
                                const std::vector<OutputRecord>& outputs)>;

struct RunReport {
  std::size_t tasklets_total = 0;
  std::size_t tasklets_processed = 0;
  std::size_t tasklets_failed = 0;  ///< attempts exhausted
  std::size_t analysis_tasks = 0;
  std::size_t merge_tasks = 0;
  std::size_t evictions = 0;
  std::size_t failures = 0;
  std::vector<std::string> merged_files;
  RuntimeBreakdown breakdown;
};

class Scheduler {
 public:
  Scheduler(WorkflowConfig config, AnalysisPayload analysis,
            MergePayload merge);

  /// Run the complete workflow (tasklet list from decompose*) on `master`.
  /// Workers must be attached to the master by the caller (they may come
  /// and go during the run — that is the point).  Blocks until every
  /// tasklet is processed or permanently failed and merging is complete.
  RunReport run(wq::Master& master, std::vector<Tasklet> tasklets);

  /// Resume a crashed run from a recovered Lobster DB (paper §3 footnote):
  /// in-flight tasks are marked evicted, their tasklets return to the pool,
  /// and the workflow continues to completion.  Processed/merged state is
  /// preserved.
  RunReport resume(wq::Master& master, Db recovered);

  const Db& db() const { return db_; }
  const Monitor& monitor() const { return monitor_; }
  /// Current (possibly adapted) task size.
  [[nodiscard]] std::uint32_t tasklets_per_task() const { return tasklets_per_task_; }

 private:
  RunReport drive(wq::Master& master);
  void top_up(wq::Master& master);
  void submit_analysis(wq::Master& master,
                       const std::vector<std::uint64_t>& ids);
  void submit_merges(wq::Master& master, bool final_sweep);
  void handle_result(wq::Master& master, const wq::TaskResult& result);
  void adapt_task_size();
  double now_seconds() const;

  WorkflowConfig config_;
  AnalysisPayload analysis_;
  MergePayload merge_;
  Db db_;
  Monitor monitor_;
  std::uint32_t tasklets_per_task_;
  /// Adaptive sizing never grows past this: one below the smallest size
  /// whose window crossed the high eviction rate.
  std::uint32_t max_tasklets_per_task_;
  std::size_t in_flight_ = 0;
  std::map<std::uint64_t, MergeGroup> active_merges_;  // task id -> group
  std::vector<std::string> merged_files_;
  std::size_t exhausted_ = 0;  ///< tasklets past max_attempts
  // Sliding window for adaptive sizing.
  std::vector<bool> recent_evictions_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lobster::core
