// End-to-end integration tests: the Lobster Scheduler driving real Work
// Queue workers, with eviction injection, interleaved/sequential merging,
// hadoop merging through the HDFS substrate, and adaptive task sizing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/scheduler.hpp"
#include "hdfs/hdfs.hpp"
#include "wq/worker.hpp"

namespace core = lobster::core;
namespace wq = lobster::wq;
using namespace std::chrono_literals;

namespace {

std::vector<core::Tasklet> make_tasklets(std::size_t n,
                                         double out_bytes = 1000.0) {
  std::vector<core::Tasklet> tasklets;
  for (std::size_t i = 1; i <= n; ++i) {
    core::Tasklet t;
    t.id = i;
    t.input_lfn = "/store/f.root";
    t.events = 100;
    t.input_bytes = 10 * out_bytes;
    t.expected_output_bytes = out_bytes;
    tasklets.push_back(t);
  }
  return tasklets;
}

// An analysis payload doing a short cancellable "computation" per tasklet.
core::AnalysisPayload quick_analysis(std::atomic<int>* tasklets_processed,
                                     int spin_ms = 1) {
  return [tasklets_processed,
          spin_ms](const std::vector<core::Tasklet>& tasklets) {
    double out_bytes = 0.0;
    for (const auto& t : tasklets) out_bytes += t.expected_output_bytes;
    return core::WrapperStages{
        .execute =
            [tasklets_processed, spin_ms, n = tasklets.size(),
             out_bytes](wq::TaskContext& ctx) {
              for (std::size_t i = 0; i < n; ++i) {
                if (ctx.cancel.cancelled()) return 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(spin_ms));
              }
              if (tasklets_processed)
                tasklets_processed->fetch_add(static_cast<int>(n));
              char buf[32];
              std::snprintf(buf, sizeof buf, "%.1f", out_bytes);
              ctx.outputs[core::wrapper_keys::kOutputBytes] = buf;
              return 0;
            },
    };
  };
}

core::MergePayload quick_merge(std::atomic<int>* merges_done) {
  return [merges_done](const core::MergeGroup&,
                       const std::vector<core::OutputRecord>&) {
    return core::WrapperStages{
        .execute =
            [merges_done](wq::TaskContext& ctx) {
              if (ctx.cancel.cancelled()) return 1;
              std::this_thread::sleep_for(1ms);
              if (merges_done) merges_done->fetch_add(1);
              return 0;
            },
    };
  };
}

}  // namespace

TEST(Scheduler, CompletesWorkflowAndMerges) {
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 4;
  cfg.task_buffer = 16;
  cfg.merge_mode = core::MergeMode::Interleaved;
  cfg.merge_policy.target_bytes = 5000.0;  // ~5 outputs per merge
  std::atomic<int> processed{0};
  std::atomic<int> merged{0};
  core::Scheduler sched(cfg, quick_analysis(&processed), quick_merge(&merged));

  wq::Master master;
  wq::Worker w1("w1", master, 4);
  wq::Worker w2("w2", master, 4);
  const auto report = sched.run(master, make_tasklets(60));
  w1.join();
  w2.join();

  EXPECT_EQ(report.tasklets_total, 60u);
  EXPECT_EQ(report.tasklets_processed, 60u);
  EXPECT_EQ(report.tasklets_failed, 0u);
  EXPECT_EQ(processed.load(), 60);
  EXPECT_GT(report.merge_tasks, 0u);
  EXPECT_EQ(merged.load(), static_cast<int>(report.merge_tasks));
  EXPECT_FALSE(report.merged_files.empty());
  // Every output ended up merged.
  EXPECT_TRUE(sched.db().unmerged_outputs().empty());
  // All tasklets reached the Merged state.
  const auto counts = sched.db().tasklet_status_counts();
  EXPECT_EQ(counts.at(core::TaskletStatus::Merged), 60u);
}

TEST(Scheduler, SurvivesWorkerEviction) {
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 2;
  cfg.task_buffer = 8;
  cfg.merge_mode = core::MergeMode::Sequential;
  cfg.merge_policy.target_bytes = 1e12;  // single merge at the end
  std::atomic<int> processed{0};
  core::Scheduler sched(cfg, quick_analysis(&processed, 3),
                        quick_merge(nullptr));

  wq::Master master;
  auto victim = std::make_unique<wq::Worker>("victim", master, 2);
  wq::Worker reliable("reliable", master, 2);

  // Evict the victim shortly into the run, from a separate thread.
  std::thread evictor([&victim] {
    std::this_thread::sleep_for(30ms);
    victim->evict();
  });

  const auto report = sched.run(master, make_tasklets(40));
  evictor.join();
  victim->join();
  reliable.join();

  EXPECT_EQ(report.tasklets_processed, 40u);
  EXPECT_EQ(report.tasklets_failed, 0u);
  EXPECT_GT(report.evictions, 0u) << "the victim's tasks must be evicted";
  // Despite evictions, nothing processed twice *successfully*: the DB holds
  // exactly 40 processed/merged tasklets.
  const auto counts = sched.db().tasklet_status_counts();
  std::size_t done = 0;
  for (const auto& [st, n] : counts)
    if (st == core::TaskletStatus::Processed ||
        st == core::TaskletStatus::Merged)
      done += n;
  EXPECT_EQ(done, 40u);
}

TEST(Scheduler, PermanentFailuresExhaustAttempts) {
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 1;
  cfg.task_buffer = 4;
  cfg.max_attempts = 3;
  cfg.merge_mode = core::MergeMode::Sequential;
  // Analysis always fails.
  auto failing = [](const std::vector<core::Tasklet>&) {
    return core::WrapperStages{
        .execute = [](wq::TaskContext&) { return 99; },
    };
  };
  core::Scheduler sched(cfg, failing, quick_merge(nullptr));
  wq::Master master;
  wq::Worker worker("w0", master, 2);
  const auto report = sched.run(master, make_tasklets(5));
  worker.join();
  EXPECT_EQ(report.tasklets_processed, 0u);
  EXPECT_EQ(report.tasklets_failed, 5u);
  EXPECT_GE(report.failures, 5u * 3u) << "3 attempts each";
  for (std::uint64_t id = 1; id <= 5; ++id)
    EXPECT_EQ(sched.db().tasklet_attempts(id), 3u);
}

TEST(Scheduler, HadoopModeLeavesOutputsForExternalMerge) {
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 3;
  cfg.task_buffer = 8;
  cfg.merge_mode = core::MergeMode::Hadoop;
  std::atomic<int> processed{0};
  core::Scheduler sched(cfg, quick_analysis(&processed), nullptr);

  wq::Master master;
  wq::Worker worker("w0", master, 4);
  const auto report = sched.run(master, make_tasklets(30));
  worker.join();
  EXPECT_EQ(report.tasklets_processed, 30u);
  EXPECT_EQ(report.merge_tasks, 0u);
  const auto outputs = sched.db().unmerged_outputs();
  ASSERT_FALSE(outputs.empty());

  // Now merge via the Hadoop substrate, as the production system does:
  // store the small files in HDFS, group them by planned merged file (map),
  // concatenate (reduce).
  lobster::hdfs::Cluster cluster(4, 2, 4096);
  std::vector<std::string> inputs;
  std::map<std::string, std::string> target_of;  // input path -> merged name
  core::MergePolicy policy;
  policy.target_bytes = 5000.0;
  const auto groups = core::plan_merges(outputs, policy, false, 0);
  double planned_bytes = 0.0;
  for (const auto& g : groups) {
    planned_bytes += g.total_bytes;
    for (const auto oid : g.output_ids) {
      const auto& rec = sched.db().output(oid);
      const std::string path = "/small/" + std::to_string(oid);
      cluster.put(path, std::string(static_cast<std::size_t>(rec.bytes), 'x'));
      inputs.push_back(path);
      target_of[path] = g.merged_path;
    }
  }
  const auto stats = lobster::hdfs::run_mapreduce(
      cluster, inputs,
      [&target_of](const std::string& path, const std::string& content) {
        return std::vector<lobster::hdfs::KeyValue>{
            {target_of.at(path), content}};
      },
      [](const std::string&, const std::vector<std::string>& values) {
        std::string out;
        for (const auto& v : values) out += v;
        return out;
      },
      "/merged/");
  EXPECT_EQ(stats.reduce_tasks, groups.size());
  double merged_bytes = 0.0;
  for (const auto& path : stats.outputs)
    merged_bytes += static_cast<double>(cluster.stat(path).size);
  EXPECT_DOUBLE_EQ(merged_bytes, planned_bytes) << "merging conserves bytes";
}

TEST(Scheduler, AdaptiveSizingShrinksUnderEviction) {
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 8;
  cfg.task_buffer = 4;
  cfg.adaptive_sizing = true;
  cfg.max_attempts = 100;
  cfg.merge_mode = core::MergeMode::Sequential;
  cfg.merge_policy.target_bytes = 1e12;

  // A payload that fails as "evicted" (cancelled) for large tasks: simulate
  // a hostile cluster where long tasks rarely finish.  We do this by
  // cancelling from within when the task has many tasklets.
  std::atomic<int> processed{0};
  auto hostile = [&processed](const std::vector<core::Tasklet>& tasklets) {
    return core::WrapperStages{
        .execute =
            [n = tasklets.size(), &processed](wq::TaskContext& ctx) {
              if (n > 2) {
                ctx.cancel.cancel();  // "evicted" mid-task
                return 1;
              }
              processed.fetch_add(static_cast<int>(n));
              return 0;
            },
    };
  };
  // Without hysteresis the size cycles 2 -> 3 -> 1 -> 2 in this pool, and
  // where a run stops in that cycle depends on the tasklet count: 300 ended
  // at 2 and 400 at 3.
  for (const std::size_t n : {300u, 400u}) {
    SCOPED_TRACE(n);
    core::Scheduler sched(cfg, hostile, quick_merge(nullptr));
    wq::Master master;
    wq::Worker worker("w0", master, 4);
    const auto report = sched.run(master, make_tasklets(n));
    worker.join();
    EXPECT_EQ(report.tasklets_processed, n);
    EXPECT_LE(sched.tasklets_per_task(), 2u)
        << "controller must shrink the task size until tasks survive";
    EXPECT_GT(report.evictions, 0u);
  }
}

TEST(Scheduler, NullPayloadsRejected) {
  core::WorkflowConfig cfg;
  EXPECT_THROW(core::Scheduler(cfg, nullptr, quick_merge(nullptr)),
               std::invalid_argument);
  cfg.merge_mode = core::MergeMode::Sequential;
  EXPECT_THROW(core::Scheduler(cfg, quick_analysis(nullptr), nullptr),
               std::invalid_argument);
}

TEST(Scheduler, ResumesFromCrashJournal) {
  // Phase 1: a run is interrupted "mid-flight" — we fabricate the crash by
  // building a DB with some tasklets processed and some assigned, saving
  // the journal, and abandoning the scheduler that owned it.
  core::Db crashed;
  {
    std::vector<core::Tasklet> tasklets = make_tasklets(20);
    crashed.register_tasklets(tasklets);
    const auto t1 = crashed.create_task(core::TaskKind::Analysis,
                                        {1, 2, 3, 4, 5}, 0.0);
    core::TaskRecord done;
    done.status = core::TaskStatus::Done;
    done.cpu_time = 50.0;
    crashed.finish_task(t1, done);
    crashed.record_output(t1, "out/t1.root", 5000.0);
    crashed.create_task(core::TaskKind::Analysis, {6, 7, 8}, 1.0);  // lost
  }
  const std::string path = ::testing::TempDir() + "crash_journal.jsonl";
  crashed.save_journal(path);

  // Phase 2: a fresh Lobster process resumes from the journal.
  core::WorkflowConfig cfg;
  cfg.tasklets_per_task = 4;
  cfg.task_buffer = 8;
  cfg.merge_mode = core::MergeMode::Sequential;
  cfg.merge_policy.target_bytes = 1e12;
  std::atomic<int> processed{0};
  core::Scheduler sched(cfg, quick_analysis(&processed), quick_merge(nullptr));
  wq::Master master;
  wq::Worker worker("w0", master, 2);
  const auto report =
      sched.resume(master, core::Db::load_journal(path));
  worker.join();
  std::remove(path.c_str());

  EXPECT_EQ(report.tasklets_total, 20u);
  EXPECT_EQ(report.tasklets_processed, 20u)
      << "5 preserved from before the crash + 15 processed after";
  // Only the 15 unfinished tasklets were re-executed.
  EXPECT_EQ(processed.load(), 15);
  EXPECT_EQ(sched.db().tasklet_attempts(6), 1u)
      << "the in-flight task cost its tasklets one attempt";
}
