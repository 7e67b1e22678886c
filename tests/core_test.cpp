// Tests for core Lobster logic: workflow decomposition, the Figure 3 task
// size model, the Lobster DB (with journal persistence), and merge planning.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "core/db.hpp"
#include "core/merge.hpp"
#include "core/task_size_model.hpp"
#include "core/workflow.hpp"
#include "dbs/dbs.hpp"

namespace core = lobster::core;
namespace dbs = lobster::dbs;
namespace lu = lobster::util;

// -------------------------------------------------------------- workflow ----

namespace {
dbs::Dataset small_dataset(std::size_t files = 4, std::uint32_t lumis = 12) {
  dbs::SyntheticDatasetSpec spec;
  spec.num_files = files;
  spec.lumis_per_file = lumis;
  spec.mean_file_bytes = 1.2e9;
  return dbs::make_synthetic_dataset(spec, lu::Rng(11));
}
}  // namespace

TEST(Decompose, CoversEveryLumiExactlyOnce) {
  const auto ds = small_dataset();
  core::DecompositionSpec spec;
  spec.lumis_per_tasklet = 5;
  const auto tasklets = core::decompose(ds, spec);
  // 12 lumis / 5 per tasklet = 3 tasklets per file (5+5+2).
  EXPECT_EQ(tasklets.size(), 4u * 3u);
  // Ids unique and dense.
  std::set<std::uint64_t> ids;
  for (const auto& t : tasklets) ids.insert(t.id);
  EXPECT_EQ(ids.size(), tasklets.size());
  // Conservation of bytes and events per file.
  double total_bytes = 0.0;
  for (const auto& t : tasklets) total_bytes += t.input_bytes;
  EXPECT_NEAR(total_bytes, ds.total_bytes(), 1.0);
}

TEST(Decompose, TaskletsNeverSpanFiles) {
  const auto ds = small_dataset(3, 7);
  const auto tasklets = core::decompose(ds, {.lumis_per_tasklet = 5});
  for (const auto& t : tasklets) {
    EXPECT_FALSE(t.input_lfn.empty());
    EXPECT_LE(t.first_lumi, t.last_lumi);
  }
  // 7 lumis -> tasklets of 5 and 2 per file.
  EXPECT_EQ(tasklets.size(), 3u * 2u);
}

TEST(Decompose, OutputRatioApplied) {
  const auto ds = small_dataset(1, 10);
  const auto tasklets =
      core::decompose(ds, {.lumis_per_tasklet = 10, .output_ratio = 0.1});
  ASSERT_EQ(tasklets.size(), 1u);
  EXPECT_NEAR(tasklets[0].expected_output_bytes, tasklets[0].input_bytes * 0.1,
              1.0);
}

TEST(Decompose, RejectsBadSpec) {
  EXPECT_THROW(core::decompose(small_dataset(), {.lumis_per_tasklet = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      core::decompose(small_dataset(),
                      {.lumis_per_tasklet = 1, .output_ratio = -0.5}),
      std::invalid_argument);
}

// -------------------------------------------------------- task size model ----

TEST(TaskSizeModel, NoEvictionApproachesOne) {
  core::TaskSizeModelParams p;
  p.num_tasklets = 20000;  // smaller for test speed
  p.num_workers = 1600;
  const core::NoEviction none;
  const auto short_tasks = core::simulate_task_size(p, none, 0.5);
  const auto long_tasks = core::simulate_task_size(p, none, 10.0);
  EXPECT_LT(short_tasks.efficiency, 0.70);
  EXPECT_GT(long_tasks.efficiency, 0.90);
  EXPECT_EQ(long_tasks.evictions, 0u);
  EXPECT_DOUBLE_EQ(long_tasks.lost_time, 0.0);
}

TEST(TaskSizeModel, AccountingIdentityHolds) {
  core::TaskSizeModelParams p;
  p.num_tasklets = 5000;
  p.num_workers = 400;
  const core::ConstantEviction constant(0.1);
  const auto r = core::simulate_task_size(p, constant, 2.0);
  EXPECT_NEAR(r.total_time, r.effective_time + r.overhead_time + r.lost_time,
              1e-6);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LT(r.efficiency, 1.0);
}

TEST(TaskSizeModel, EvictionCreatesInteriorOptimum) {
  // Figure 3: with eviction the efficiency peaks at an intermediate task
  // length (paper: ~70% at about one hour) and falls off for long tasks.
  core::TaskSizeModelParams p;
  p.num_tasklets = 20000;
  p.num_workers = 1600;
  const core::ConstantEviction constant(0.1);
  const auto sweep = core::sweep_task_sizes(
      p, constant, {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
  const double opt = core::optimal_task_hours(sweep);
  EXPECT_GE(opt, 0.5);
  EXPECT_LE(opt, 8.0) << "long tasks must lose to eviction";
  // Efficiency at the extreme must be below the optimum.
  const double best = sweep[1].efficiency;
  EXPECT_LT(sweep.back().efficiency, best);
}

TEST(TaskSizeModel, ObservedAndConstantAgreeRoughly) {
  // Paper: "This simulation is not sensitive to differences between the
  // observed probability and a constant one."
  core::TaskSizeModelParams p;
  p.num_tasklets = 20000;
  p.num_workers = 1600;
  const core::ConstantEviction constant(0.1);
  const auto log = core::synthesize_availability_log(20000, lu::Rng(5));
  const core::EmpiricalEviction observed{lu::EmpiricalDistribution(log)};
  const auto a = core::simulate_task_size(p, constant, 1.0);
  const auto b = core::simulate_task_size(p, observed, 1.0);
  EXPECT_NEAR(a.efficiency, b.efficiency, 0.15);
}

TEST(TaskSizeModel, DeterministicForSeed) {
  core::TaskSizeModelParams p;
  p.num_tasklets = 2000;
  p.num_workers = 100;
  const core::ConstantEviction eviction(0.1);
  const auto a = core::simulate_task_size(p, eviction, 1.0);
  const auto b = core::simulate_task_size(p, eviction, 1.0);
  EXPECT_DOUBLE_EQ(a.efficiency, b.efficiency);
  EXPECT_EQ(a.evictions, b.evictions);
}

TEST(TaskSizeModel, InvalidInputsRejected) {
  core::TaskSizeModelParams p;
  EXPECT_THROW(core::simulate_task_size(p, core::NoEviction{}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(core::ConstantEviction(0.0), std::invalid_argument);
  EXPECT_THROW(core::EmpiricalEviction(lu::EmpiricalDistribution{}),
               std::invalid_argument);
  EXPECT_THROW(core::optimal_task_hours({}), std::invalid_argument);
}

TEST(EvictionCurve, ShapeAndErrors) {
  const auto log = core::synthesize_availability_log(50000, lu::Rng(3),
                                                     /*shape=*/0.8,
                                                     /*scale_hours=*/4.0);
  const auto curve = core::eviction_probability_curve(log, 20, 20.0);
  ASSERT_EQ(curve.size(), 20u);
  // Every bin: valid probability with a binomial error.
  for (const auto& pt : curve) {
    EXPECT_GE(pt.probability, 0.0);
    EXPECT_LE(pt.probability, 1.0);
    if (pt.at_risk > 0) {
      EXPECT_GE(pt.sigma, 0.0);
    }
  }
  // Weibull shape<1: the hazard decreases with availability time.
  EXPECT_GT(curve[0].probability, curve[10].probability);
  // At-risk counts are non-increasing.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].at_risk, curve[i - 1].at_risk);
}

// -------------------------------------------------------------------- db ----

namespace {
std::vector<core::Tasklet> db_tasklets(std::size_t n) {
  std::vector<core::Tasklet> out;
  for (std::size_t i = 1; i <= n; ++i) {
    core::Tasklet t;
    t.id = i;
    t.input_lfn = "/store/f" + std::to_string(i / 3) + ".root";
    t.events = 100 * i;
    t.input_bytes = 1e8;
    t.expected_output_bytes = 5e6;
    t.first_lumi = {1, static_cast<std::uint32_t>(i)};
    t.last_lumi = {1, static_cast<std::uint32_t>(i)};
    out.push_back(t);
  }
  return out;
}

core::TaskRecord done_record(double cpu = 100.0) {
  core::TaskRecord r;
  r.status = core::TaskStatus::Done;
  r.worker = "w0";
  r.finish_time = 1000.0;
  r.cpu_time = cpu;
  r.segment_time[static_cast<std::size_t>(core::Segment::Execute)] = cpu;
  r.segment_time[static_cast<std::size_t>(core::Segment::StageOut)] = 10.0;
  return r;
}
}  // namespace

TEST(Db, TaskletLifecycle) {
  core::Db db;
  db.register_tasklets(db_tasklets(10));
  EXPECT_EQ(db.num_tasklets(), 10u);
  EXPECT_EQ(db.pending_tasklets(100).size(), 10u);

  const auto id = db.create_task(core::TaskKind::Analysis, {1, 2, 3}, 0.0);
  EXPECT_EQ(db.tasklet_status(1), core::TaskletStatus::Assigned);
  EXPECT_EQ(db.pending_tasklets(100).size(), 7u);

  db.finish_task(id, done_record());
  EXPECT_EQ(db.tasklet_status(1), core::TaskletStatus::Processed);
  EXPECT_EQ(db.task(id).status, core::TaskStatus::Done);
}

TEST(Db, EvictionReturnsTaskletsToPending) {
  core::Db db;
  db.register_tasklets(db_tasklets(5));
  const auto id = db.create_task(core::TaskKind::Analysis, {1, 2}, 0.0);
  core::TaskRecord r;
  r.status = core::TaskStatus::Evicted;
  r.lost_time = 55.0;
  db.finish_task(id, r);
  EXPECT_EQ(db.tasklet_status(1), core::TaskletStatus::Pending);
  EXPECT_EQ(db.tasklet_attempts(1), 1u);
  EXPECT_EQ(db.pending_tasklets(100).size(), 5u);
  EXPECT_DOUBLE_EQ(db.total_lost_time(), 55.0);
}

TEST(Db, InvalidTransitionsRejected) {
  core::Db db;
  db.register_tasklets(db_tasklets(3));
  const auto id = db.create_task(core::TaskKind::Analysis, {1}, 0.0);
  EXPECT_THROW(db.create_task(core::TaskKind::Analysis, {1}, 0.0),
               std::logic_error)
      << "tasklet already assigned";
  EXPECT_THROW(db.create_task(core::TaskKind::Analysis, {99}, 0.0),
               std::out_of_range);
  db.finish_task(id, done_record());
  EXPECT_THROW(db.finish_task(id, done_record()), std::logic_error)
      << "double finish";
  core::TaskRecord open;
  open.status = core::TaskStatus::Submitted;
  const auto id2 = db.create_task(core::TaskKind::Analysis, {2}, 0.0);
  EXPECT_THROW(db.finish_task(id2, open), std::logic_error)
      << "finish requires a terminal status";
}

TEST(Db, OutputsAndMergeMarking) {
  core::Db db;
  db.register_tasklets(db_tasklets(4));
  const auto t1 = db.create_task(core::TaskKind::Analysis, {1, 2}, 0.0);
  db.finish_task(t1, done_record());
  const auto o1 = db.record_output(t1, "out/1.root", 5e7);
  const auto t2 = db.create_task(core::TaskKind::Analysis, {3, 4}, 0.0);
  db.finish_task(t2, done_record());
  const auto o2 = db.record_output(t2, "out/2.root", 6e7);

  EXPECT_EQ(db.unmerged_outputs().size(), 2u);
  db.mark_merged({o1, o2});
  EXPECT_TRUE(db.unmerged_outputs().empty());
  EXPECT_EQ(db.tasklet_status(1), core::TaskletStatus::Merged);
  EXPECT_THROW(db.mark_merged({o1}), std::logic_error) << "double merge";
}

TEST(Db, SegmentAggregates) {
  core::Db db;
  db.register_tasklets(db_tasklets(4));
  for (int i = 0; i < 2; ++i) {
    const auto id = db.create_task(
        core::TaskKind::Analysis,
        {static_cast<std::uint64_t>(2 * i + 1),
         static_cast<std::uint64_t>(2 * i + 2)},
        0.0);
    db.finish_task(id, done_record(100.0));
  }
  const auto totals = db.segment_totals();
  EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(core::Segment::Execute)],
                   200.0);
  EXPECT_DOUBLE_EQ(totals[static_cast<std::size_t>(core::Segment::StageOut)],
                   20.0);
  EXPECT_DOUBLE_EQ(db.total_cpu_time(), 200.0);
  const auto h = db.segment_histogram(core::Segment::Execute, 10, 1000.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Db, JournalRoundTrip) {
  core::Db db;
  db.register_tasklets(db_tasklets(6));
  const auto t1 = db.create_task(core::TaskKind::Analysis, {1, 2, 3}, 5.0);
  db.finish_task(t1, done_record());
  db.record_output(t1, "out/\"quoted\".root", 5e7);
  const auto t2 = db.create_task(core::TaskKind::Analysis, {4, 5}, 6.0);
  core::TaskRecord ev;
  ev.status = core::TaskStatus::Evicted;
  ev.lost_time = 12.0;
  db.finish_task(t2, ev);

  const std::string path = ::testing::TempDir() + "lobster_journal.jsonl";
  db.save_journal(path);
  const auto restored = core::Db::load_journal(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.num_tasklets(), 6u);
  EXPECT_EQ(restored.num_tasks(), 2u);
  EXPECT_EQ(restored.num_outputs(), 1u);
  EXPECT_EQ(restored.tasklet_status(1), core::TaskletStatus::Processed);
  EXPECT_EQ(restored.tasklet_status(4), core::TaskletStatus::Pending);
  EXPECT_EQ(restored.tasklet_attempts(4), 1u);
  EXPECT_EQ(restored.task(t1).status, core::TaskStatus::Done);
  EXPECT_DOUBLE_EQ(restored.task(t2).lost_time, 12.0);
  EXPECT_EQ(restored.output(1).path, "out/\"quoted\".root");
  // The restored DB keeps allocating fresh ids.
  const auto t3 = const_cast<core::Db&>(restored)
                      .create_task(core::TaskKind::Analysis, {4}, 7.0);
  EXPECT_GT(t3, t2);
}

TEST(Db, TasksCsvHasHeaderAndRows) {
  core::Db db;
  db.register_tasklets(db_tasklets(2));
  const auto id = db.create_task(core::TaskKind::Analysis, {1, 2}, 0.0);
  db.finish_task(id, done_record());
  const auto csv = db.tasks_csv();
  EXPECT_NE(csv.find("task_id,kind,status"), std::string::npos);
  EXPECT_NE(csv.find("analysis,done"), std::string::npos);
}

// ----------------------------------------------------------------- merge ----

namespace {
std::vector<core::OutputRecord> make_outputs(
    const std::vector<double>& sizes) {
  std::vector<core::OutputRecord> out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    core::OutputRecord r;
    r.output_id = i + 1;
    r.task_id = i + 1;
    r.path = "out/" + std::to_string(i) + ".root";
    r.bytes = sizes[i];
    out.push_back(r);
  }
  return out;
}
}  // namespace

TEST(MergePlanner, GroupsNearTargetSize) {
  core::MergePolicy policy;
  policy.target_bytes = 100.0;
  policy.min_fill = 0.9;
  const auto outputs = make_outputs({40, 40, 40, 40, 40, 40});
  const auto groups = core::plan_merges(outputs, policy, false, 0);
  // 40+40 = 80 < 90; +40 would exceed 100 -> groups of ~2-3.
  double total = 0.0;
  std::set<std::uint64_t> seen;
  for (const auto& g : groups) {
    total += g.total_bytes;
    EXPECT_LE(g.total_bytes, 140.0);
    for (auto id : g.output_ids) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_DOUBLE_EQ(total, 240.0) << "merging conserves bytes";
  EXPECT_EQ(seen.size(), 6u);
}

TEST(MergePlanner, OnlyFullSuppressesTrailingGroup) {
  core::MergePolicy policy;
  policy.target_bytes = 100.0;
  const auto outputs = make_outputs({95, 95, 30});
  const auto full = core::plan_merges(outputs, policy, true, 0);
  ASSERT_EQ(full.size(), 2u);  // the trailing 30 is held back
  const auto sweep = core::plan_merges(outputs, policy, false, 0);
  EXPECT_EQ(sweep.size(), 3u);
}

TEST(MergePlanner, UniqueNamesAcrossCalls) {
  core::MergePolicy policy;
  policy.target_bytes = 50.0;
  const auto a = core::plan_merges(make_outputs({60}), policy, false, 0);
  const auto b = core::plan_merges(make_outputs({60}), policy, false, 1);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NE(a[0].merged_path, b[0].merged_path);
}

TEST(MergePlanner, RejectsMergedInputsAndBadPolicy) {
  auto outputs = make_outputs({10});
  outputs[0].merged = true;
  EXPECT_THROW(core::plan_merges(outputs, {}, false, 0), std::logic_error);
  core::MergePolicy bad;
  bad.target_bytes = 0.0;
  EXPECT_THROW(core::plan_merges(make_outputs({10}), bad, false, 0),
               std::invalid_argument);
}

TEST(MergePlanner, InterleaveReadyAtTenPercent) {
  core::Db db;
  db.register_tasklets(db_tasklets(20));
  core::MergePolicy policy;  // start_fraction = 0.10
  EXPECT_FALSE(core::interleave_ready(db, policy));
  // Process 2 of 20 tasklets = exactly 10%.
  const auto id = db.create_task(core::TaskKind::Analysis, {1, 2}, 0.0);
  db.finish_task(id, done_record());
  EXPECT_TRUE(core::interleave_ready(db, policy));
}

TEST(Db, RecoverInFlightReturnsAssignedTasklets) {
  core::Db db;
  db.register_tasklets(db_tasklets(8));
  const auto done_id = db.create_task(core::TaskKind::Analysis, {1, 2}, 0.0);
  db.finish_task(done_id, done_record());
  db.create_task(core::TaskKind::Analysis, {3, 4}, 1.0);  // in flight
  db.create_task(core::TaskKind::Analysis, {5}, 2.0);     // in flight

  // Crash + reboot: journal round-trip, then recovery.
  const std::string path = ::testing::TempDir() + "recover_journal.jsonl";
  db.save_journal(path);
  auto restored = core::Db::load_journal(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.recover_in_flight(), 2u);
  EXPECT_EQ(restored.tasklet_status(1), core::TaskletStatus::Processed)
      << "finished work is preserved";
  EXPECT_EQ(restored.tasklet_status(3), core::TaskletStatus::Pending);
  EXPECT_EQ(restored.tasklet_attempts(3), 1u) << "recovery costs an attempt";
  EXPECT_EQ(restored.tasklet_status(5), core::TaskletStatus::Pending);
  EXPECT_EQ(restored.task_status_counts().at(core::TaskStatus::Evicted), 2u);
  // Idempotent: nothing left to recover.
  EXPECT_EQ(restored.recover_in_flight(), 0u);
}
