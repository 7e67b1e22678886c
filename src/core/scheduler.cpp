#include "core/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "util/log.hpp"

namespace lobster::core {

namespace {
constexpr std::size_t kAdaptWindow = 50;
constexpr double kAdaptHighEvictionRate = 0.30;
constexpr double kAdaptLowEvictionRate = 0.05;
constexpr int kMaxMergeSweeps = 5;
}  // namespace

Scheduler::Scheduler(WorkflowConfig config, AnalysisPayload analysis,
                     MergePayload merge)
    : config_(std::move(config)),
      analysis_(std::move(analysis)),
      merge_(std::move(merge)),
      monitor_(60.0),
      tasklets_per_task_(config_.tasklets_per_task),
      max_tasklets_per_task_(config_.tasklets_per_task * 4) {
  if (!analysis_) throw std::invalid_argument("scheduler: null analysis payload");
  if (config_.merge_mode != MergeMode::Hadoop && !merge_)
    throw std::invalid_argument("scheduler: null merge payload");
}

double Scheduler::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

RunReport Scheduler::run(wq::Master& master, std::vector<Tasklet> tasklets) {
  db_.register_tasklets(tasklets);
  LOBSTER_LOG_INFO("lobster", "workflow '%s': %zu tasklets, task size %u",
                   config_.label.c_str(), tasklets.size(),
                   tasklets_per_task_);
  return drive(master);
}

RunReport Scheduler::resume(wq::Master& master, Db recovered) {
  db_ = std::move(recovered);
  const std::size_t lost = db_.recover_in_flight();
  LOBSTER_LOG_INFO("lobster",
                   "workflow '%s': resumed from journal, %zu in-flight tasks "
                   "recovered as evicted",
                   config_.label.c_str(), lost);
  return drive(master);
}

RunReport Scheduler::drive(wq::Master& master) {
  start_ = std::chrono::steady_clock::now();
  top_up(master);

  int merge_sweeps = 0;
  while (true) {
    if (in_flight_ == 0) {
      top_up(master);
      if (in_flight_ == 0) {
        // Analysis is complete (or exhausted).  Merge what remains.
        const bool merging_here = config_.merge_mode != MergeMode::Hadoop;
        if (merging_here && merge_sweeps < kMaxMergeSweeps &&
            !db_.unmerged_outputs().empty()) {
          ++merge_sweeps;
          submit_merges(master, /*final_sweep=*/true);
        }
        if (in_flight_ == 0) break;
      }
    }
    auto result = master.next_result();
    if (!result) break;
    handle_result(master, *result);
  }
  master.close_submission();

  RunReport report;
  report.tasklets_total = db_.num_tasklets();
  const auto counts = db_.tasklet_status_counts();
  for (const auto& [status, n] : counts) {
    if (status == TaskletStatus::Processed || status == TaskletStatus::Merged)
      report.tasklets_processed += n;
    if (status == TaskletStatus::Failed) report.tasklets_failed += n;
  }
  for (std::uint64_t id = 1; id <= db_.num_tasks(); ++id) {
    const auto& rec = db_.task(id);
    if (rec.kind == TaskKind::Analysis)
      ++report.analysis_tasks;
    else
      ++report.merge_tasks;
  }
  report.evictions = monitor_.tasks_evicted();
  report.failures = monitor_.tasks_failed();
  report.merged_files = merged_files_;
  report.breakdown = monitor_.breakdown();
  return report;
}

void Scheduler::top_up(wq::Master& master) {
  while (in_flight_ < config_.task_buffer) {
    const auto ids = db_.pending_tasklets(tasklets_per_task_);
    if (ids.empty()) break;
    std::vector<std::uint64_t> good;
    for (std::uint64_t id : ids) {
      if (db_.tasklet_attempts(id) >= config_.max_attempts) {
        db_.mark_tasklet_failed(id);
        ++exhausted_;
        LOBSTER_LOG_WARN("lobster", "tasklet %llu exhausted its attempts",
                         static_cast<unsigned long long>(id));
      } else {
        good.push_back(id);
      }
    }
    if (good.empty()) continue;  // all exhausted; look at the next batch
    submit_analysis(master, good);
  }
  // Interleaved merging runs concurrently with analysis.
  if (config_.merge_mode == MergeMode::Interleaved)
    submit_merges(master, /*final_sweep=*/false);
}

void Scheduler::submit_analysis(wq::Master& master,
                                const std::vector<std::uint64_t>& ids) {
  std::vector<Tasklet> tasklets;
  tasklets.reserve(ids.size());
  for (std::uint64_t id : ids) tasklets.push_back(db_.tasklet(id));
  const std::uint64_t task_id =
      db_.create_task(TaskKind::Analysis, ids, now_seconds());
  wq::TaskSpec spec;
  spec.id = task_id;
  spec.tag = "analysis";
  spec.work = make_wrapper(analysis_(tasklets));
  for (const auto& t : tasklets) spec.sandbox_bytes += t.input_bytes * 0.001;
  master.submit(std::move(spec));
  ++in_flight_;
}

void Scheduler::submit_merges(wq::Master& master, bool final_sweep) {
  if (!final_sweep && !interleave_ready(db_, config_.merge_policy)) return;
  // Candidates: unmerged outputs not already reserved by an active merge.
  std::set<std::uint64_t> reserved;
  for (const auto& [task_id, group] : active_merges_)
    reserved.insert(group.output_ids.begin(), group.output_ids.end());
  std::vector<OutputRecord> candidates;
  for (const auto& out : db_.unmerged_outputs())
    if (!reserved.count(out.output_id)) candidates.push_back(out);
  if (candidates.empty()) return;

  const auto groups =
      plan_merges(candidates, config_.merge_policy, /*only_full=*/!final_sweep,
                  db_.num_tasks());
  for (const auto& group : groups) {
    std::vector<OutputRecord> outputs;
    outputs.reserve(group.output_ids.size());
    for (std::uint64_t oid : group.output_ids)
      outputs.push_back(db_.output(oid));
    const std::uint64_t task_id =
        db_.create_task(TaskKind::Merge, group.output_ids, now_seconds());
    wq::TaskSpec spec;
    spec.id = task_id;
    spec.tag = "merge";
    spec.work = make_wrapper(merge_(group, outputs));
    master.submit(std::move(spec));
    active_merges_.emplace(task_id, group);
    ++in_flight_;
  }
}

void Scheduler::handle_result(wq::Master& master,
                              const wq::TaskResult& result) {
  --in_flight_;
  TaskRecord rec;
  fill_record_from_result(result, rec);
  rec.finish_time = now_seconds();
  db_.finish_task(result.id, rec);
  // Re-read: finish_task merged identity fields (kind, tasklets).
  const TaskRecord& stored = db_.task(result.id);
  monitor_.on_task_finished(stored);

  const auto merge_it = active_merges_.find(result.id);
  if (merge_it != active_merges_.end()) {
    if (stored.status == TaskStatus::Done) {
      db_.mark_merged(merge_it->second.output_ids);
      merged_files_.push_back(merge_it->second.merged_path);
    }
    // On failure/eviction the outputs simply return to the unmerged pool.
    active_merges_.erase(merge_it);
  } else if (stored.status == TaskStatus::Done) {
    // Successful analysis task: register its output file.
    char buf[64];
    std::snprintf(buf, sizeof buf, "out/task_%06llu.root",
                  static_cast<unsigned long long>(result.id));
    double bytes = stored.outputs_bytes;
    if (bytes <= 0.0) {
      // Fall back to the expected output volume of the tasklets.
      for (std::uint64_t tid : stored.tasklets)
        bytes += db_.tasklet(tid).expected_output_bytes;
    }
    db_.record_output(result.id, buf, bytes);
  }

  if (config_.adaptive_sizing && stored.kind == TaskKind::Analysis) {
    recent_evictions_.push_back(stored.status == TaskStatus::Evicted);
    adapt_task_size();
  }
  top_up(master);
}

void Scheduler::adapt_task_size() {
  if (recent_evictions_.size() < kAdaptWindow) return;
  std::size_t evictions = 0;
  for (bool e : recent_evictions_) evictions += e;
  const double rate =
      static_cast<double>(evictions) / static_cast<double>(recent_evictions_.size());
  const std::uint32_t before = tasklets_per_task_;
  if (rate > kAdaptHighEvictionRate) {
    // Hysteresis: never grow back to a size whose window crossed the high
    // rate.  Without it a pool that evicts every task above 2 tasklets
    // cycles 2 -> 3 -> 1 -> 2 and never settles.
    max_tasklets_per_task_ =
        std::max<std::uint32_t>(1, tasklets_per_task_ - 1);
    tasklets_per_task_ = std::max<std::uint32_t>(1, tasklets_per_task_ / 2);
  } else if (rate < kAdaptLowEvictionRate) {
    tasklets_per_task_ =
        std::min(max_tasklets_per_task_, tasklets_per_task_ + 1);
  }
  if (tasklets_per_task_ != before)
    LOBSTER_LOG_INFO("lobster",
                     "adaptive sizing: eviction rate %.2f, task size %u -> %u",
                     rate, before, tasklets_per_task_);
  recent_evictions_.clear();
}

}  // namespace lobster::core
