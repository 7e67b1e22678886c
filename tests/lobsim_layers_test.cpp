// Unit tests for the Engine's extracted layers: DispatchPolicy (task
// construction) and MergePlanner (merge-group planning).  Both are pure
// logic over pools — no DES kernel — so these tests pin the switchover
// points and group sizing directly.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/merge.hpp"
#include "lobsim/dispatch_policy.hpp"
#include "lobsim/merge_planner.hpp"

namespace lobster::lobsim {
namespace {

DispatchContext ctx(std::uint64_t slots, bool evictable = true,
                    std::size_t site = 0) {
  DispatchContext c;
  c.total_slots = slots;
  c.site = site;
  c.site_evictable = evictable;
  return c;
}

DispatchContext lifetime_ctx(std::uint64_t slots, double expected_lifetime,
                             double cpu_mean = 600.0) {
  DispatchContext c = ctx(slots);
  c.expected_remaining_lifetime = expected_lifetime;
  c.tasklet_cpu_mean = cpu_mean;
  return c;
}

TEST(DispatchPolicyTest, FifoAlwaysFullSize) {
  auto p = make_dispatch_policy(DispatchMode::Fifo, 6);
  EXPECT_STREQ(p->name(), "fifo");
  p->add_tasklets(100);
  const auto t = p->next(ctx(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->is_merge);
  // Full size even though the pool (100) fits in the slots (1000): fifo
  // never shrinks.
  EXPECT_EQ(t->n_tasklets, 6u);
  EXPECT_EQ(p->tasklets_pending(), 94u);
}

TEST(DispatchPolicyTest, FifoClampsToRemainder) {
  auto p = make_dispatch_policy(DispatchMode::Fifo, 6);
  p->add_tasklets(4);
  const auto t = p->next(ctx(8));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 4u);
  EXPECT_TRUE(p->idle());
  EXPECT_FALSE(p->next(ctx(8)).has_value());
}

TEST(DispatchPolicyTest, TailShrinkSwitchoverPoint) {
  auto p = make_dispatch_policy(DispatchMode::TailShrink, 6);
  EXPECT_STREQ(p->name(), "tail-shrink");
  // Above the slot count: full-size tasks.
  p->add_tasklets(65);
  auto t = p->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 6u);  // pending 65 > slots 64
  // Now pending == 59 < slots: drain phase, single tasklets.
  t = p->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 1u);
  EXPECT_EQ(p->tasklets_pending(), 58u);
  // Exactly at the boundary (pending == slots) it also shrinks.
  auto q = make_dispatch_policy(DispatchMode::TailShrink, 6);
  q->add_tasklets(64);
  const auto b = q->next(ctx(64));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->n_tasklets, 1u);
}

TEST(DispatchPolicyTest, SiteAwareSizing) {
  auto p = make_dispatch_policy(DispatchMode::SiteAware, 6);
  p->add_tasklets(10000);
  // Eviction-prone site: half-size tasks.
  auto t = p->next(ctx(64, /*evictable=*/true));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 3u);
  // Dedicated site: full-size tasks.
  t = p->next(ctx(64, /*evictable=*/false));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 6u);
  // Drain phase shrinks to 1 regardless of the site.
  auto q = make_dispatch_policy(DispatchMode::SiteAware, 6);
  q->add_tasklets(8);
  const auto d = q->next(ctx(64, /*evictable=*/false));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->n_tasklets, 1u);
}

TEST(DispatchPolicyTest, LifetimeSizesAgainstExpectedLifetime) {
  // safety 0.5, cap 24: the task fills half the expected remaining worker
  // lifetime, measured in mean tasklets.
  auto p = make_dispatch_policy(DispatchMode::Lifetime, 6, 0.5, 24);
  EXPECT_STREQ(p->name(), "lifetime");
  p->add_tasklets(100000);
  // 0.5 * 14400 s / 600 s = 12 tasklets.
  auto t = p->next(lifetime_ctx(64, 14400.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 12u);
  // A short expected lifetime clamps to a single tasklet (0.5*600/600 < 1).
  t = p->next(lifetime_ctx(64, 600.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 1u);
  // A dedicated site (infinite expected lifetime) takes the cap.
  t = p->next(lifetime_ctx(
      64, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 24u);
}

TEST(DispatchPolicyTest, LifetimeDefaultsAndFallbacks) {
  // Default cap is 4x the static size; defaults come from the factory.
  auto p = make_dispatch_policy(DispatchMode::Lifetime, 6);
  p->add_tasklets(100000);
  auto t = p->next(lifetime_ctx(64, std::numeric_limits<double>::infinity()));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 24u);
  // Without a tasklet CPU estimate the lifetime cannot be converted, so the
  // policy falls back to the static size.
  t = p->next(lifetime_ctx(64, 14400.0, /*cpu_mean=*/0.0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 6u);
  // Drain phase: pending fits in the slots, single tasklets like TailShrink.
  auto q = make_dispatch_policy(DispatchMode::Lifetime, 6);
  q->add_tasklets(64);
  const auto d = q->next(lifetime_ctx(64, 14400.0));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->n_tasklets, 1u);
  // A non-positive safety factor is a configuration error.
  EXPECT_THROW(make_dispatch_policy(DispatchMode::Lifetime, 6, 0.0),
               std::invalid_argument);
}

TEST(DispatchPolicyTest, MergeGroupsDispatchFirst) {
  auto p = make_dispatch_policy(DispatchMode::Fifo, 6);
  p->add_tasklets(100);
  p->push_merge_group(3.5e9);
  p->push_merge_group(2.0e9);
  EXPECT_EQ(p->merge_backlog(), 2u);
  auto t = p->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->is_merge);
  EXPECT_EQ(t->merge_input_bytes, 3.5e9);  // FIFO among merges
  t = p->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->is_merge);
  EXPECT_EQ(t->merge_input_bytes, 2.0e9);
  t = p->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->is_merge);
  EXPECT_EQ(p->tasklets_pending(), 94u);
}

TEST(DispatchPolicyTest, PartitionedApportionsByLargestRemainder) {
  auto base = make_dispatch_policy(DispatchMode::Partitioned, 6);
  EXPECT_STREQ(base->name(), "partitioned");
  auto* p = dynamic_cast<PartitionedDispatch*>(base.get());
  ASSERT_NE(p, nullptr);
  p->add_tasklets(100);
  // Weights 3:3:2 over 100 tasklets: exact shares 37.5 / 37.5 / 25.
  // Floors give 37/37/25 with one leftover; the remainder tie (0.5 vs 0.5)
  // breaks to the lower site index.
  p->partition({3000, 3000, 2000});
  ASSERT_EQ(p->num_partitions(), 3u);
  EXPECT_EQ(p->site_pending(0), 38u);
  EXPECT_EQ(p->site_pending(1), 37u);
  EXPECT_EQ(p->site_pending(2), 25u);
  EXPECT_EQ(p->site_pending(0) + p->site_pending(1) + p->site_pending(2),
            p->tasklets_pending());
  // Degenerate all-zero weights: everything parks on site 0.
  auto degenerate = make_dispatch_policy(DispatchMode::Partitioned, 6);
  auto* q = dynamic_cast<PartitionedDispatch*>(degenerate.get());
  q->add_tasklets(10);
  q->partition({0, 0});
  EXPECT_EQ(q->site_pending(0), 10u);
  EXPECT_EQ(q->site_pending(1), 0u);
}

TEST(DispatchPolicyTest, PartitionedDrawsOnlyFromOwnSite) {
  auto base = make_dispatch_policy(DispatchMode::Partitioned, 6);
  auto* p = dynamic_cast<PartitionedDispatch*>(base.get());
  p->add_tasklets(20);
  p->partition({4, 4});  // 10 / 10, four slots each
  // Site 1 drains its own pool to zero and then gets nothing, even though
  // site 0's share is untouched — that is the partitioning pathology
  // stealing exists to fix.
  std::uint64_t drawn = 0;
  while (auto t = p->next(ctx(4, true, /*site=*/1))) drawn += t->n_tasklets;
  EXPECT_EQ(drawn, 10u);
  EXPECT_EQ(p->site_pending(1), 0u);
  EXPECT_EQ(p->site_pending(0), 10u);
  EXPECT_FALSE(p->next(ctx(4, true, /*site=*/1)).has_value());
  // Per-site drain sizing: site 0's share (10) exceeds its slot weight (4),
  // so the first draw is full-size; once pending fits the slots it shrinks.
  auto t = p->next(ctx(4, true, /*site=*/0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 6u);
  t = p->next(ctx(4, true, /*site=*/0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 1u);
}

TEST(DispatchPolicyTest, PartitionedReturnRoutesToNamedSite) {
  auto base = make_dispatch_policy(DispatchMode::Partitioned, 6);
  auto* p = dynamic_cast<PartitionedDispatch*>(base.get());
  p->add_tasklets(12);
  p->partition({2, 2});  // 6 / 6, two slots each
  auto t = p->next(ctx(2, true, /*site=*/1));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 6u);  // 6 > 2 slots: full-size draw empties it
  EXPECT_EQ(p->site_pending(1), 0u);
  // A retried task returns to the pool of the site it was drawn for.
  p->return_tasklets(1, t->n_tasklets);
  EXPECT_EQ(p->site_pending(1), 6u);
  EXPECT_EQ(p->tasklets_pending(), 12u);
  // An out-of-range site (defensive) routes to site 0 instead of vanishing.
  p->return_tasklets(99, 2);
  EXPECT_EQ(p->site_pending(0), 8u);
}

TEST(DispatchPolicyTest, StealingTakesFromDeepestBacklog) {
  auto base = make_dispatch_policy(DispatchMode::Stealing, 6,
                                   /*lifetime_safety=*/2.0,
                                   /*lifetime_max_tasklets=*/0,
                                   /*steal_min_backlog=*/1);
  EXPECT_STREQ(base->name(), "stealing");
  auto* p = dynamic_cast<StealingDispatch*>(base.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->min_backlog(), 1u);
  p->add_tasklets(30);
  p->partition({0, 100, 200});  // 0 / 10 / 20
  // Site 0 has no share: its draw becomes a steal from the deepest pool
  // (site 2), marked stolen with the victim recorded for penalty charging.
  auto t = p->next(ctx(1, true, /*site=*/0));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->stolen);
  EXPECT_EQ(t->victim_site, 2u);
  // Victim backlog (20) exceeds its slots (ctx carries the THIEF's slots;
  // the chunk decision uses the victim's partition slots = 200), so the
  // drain-phase rule gives a single tasklet here: 20 <= 200.
  EXPECT_EQ(t->n_tasklets, 1u);
  EXPECT_EQ(p->site_pending(2), 19u);
  // A stolen retry returns to the VICTIM's pool, not the thief's.
  p->return_tasklets(t->victim_site, t->n_tasklets);
  EXPECT_EQ(p->site_pending(2), 20u);
}

TEST(DispatchPolicyTest, StealingChunkMirrorsDrainSizing) {
  auto base = make_dispatch_policy(DispatchMode::Stealing, 6, 2.0, 0,
                                   /*steal_min_backlog=*/1);
  auto* p = dynamic_cast<StealingDispatch*>(base.get());
  p->add_tasklets(40);
  p->partition({0, 4});  // all 40 on site 1, whose slot weight is only 4
  // Victim backlog (40) exceeds its slots (4): full-size chunks.
  auto t = p->next(ctx(8, true, /*site=*/0));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->stolen);
  EXPECT_EQ(t->n_tasklets, 6u);
  // Drain the victim down into its slot count: single-tasklet steals, so
  // the tail never re-grows stragglers out of stolen work.
  while (p->site_pending(1) > 4)
    ASSERT_TRUE(p->next(ctx(8, true, /*site=*/0)).has_value());
  t = p->next(ctx(8, true, /*site=*/0));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->n_tasklets, 1u);
}

TEST(DispatchPolicyTest, StealingHonoursMinBacklogThreshold) {
  // Default threshold is 2x tasklets_per_task = 12.
  auto base = make_dispatch_policy(DispatchMode::Stealing, 6);
  auto* p = dynamic_cast<StealingDispatch*>(base.get());
  EXPECT_EQ(p->min_backlog(), 12u);
  p->add_tasklets(11);
  p->partition({0, 100});  // 0 / 11 — just below the threshold
  EXPECT_FALSE(p->next(ctx(8, true, /*site=*/0)).has_value());
  EXPECT_EQ(p->site_pending(1), 11u);  // untouched
  // Before partition() the policy acts as a single pool (unit-test mode),
  // so next() still works without a SiteManager.
  auto solo = make_dispatch_policy(DispatchMode::Stealing, 6);
  solo->add_tasklets(6);
  const auto t = solo->next(ctx(64));
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->stolen);
}

// -- MergePlanner ----------------------------------------------------------

core::MergePolicy test_policy() {
  core::MergePolicy mp;
  mp.target_bytes = 1000.0;
  mp.min_fill = 0.9;
  mp.start_fraction = 0.10;
  return mp;
}

TEST(MergePlannerTest, InterleavedWaitsForStartFraction) {
  auto p = MergePlanner::make(core::MergeMode::Interleaved, test_policy());
  EXPECT_STREQ(p->name(), "interleaved");
  for (int i = 0; i < 20; ++i) p->add_output(100.0);  // 2000 bytes pooled
  // 5% of the workflow processed: below start_fraction, nothing planned.
  auto plan = p->plan(50, 1000, false);
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_FALSE(plan.start_hadoop);
  // 10% processed: planning opens up; greedy grouping emits two 900-byte
  // groups (9 outputs each) and holds the 200-byte remainder mid-run.
  plan = p->plan(100, 1000, false);
  ASSERT_EQ(plan.groups.size(), 2u);
  EXPECT_EQ(plan.groups[0], 900.0);
  EXPECT_EQ(plan.groups[1], 900.0);
  EXPECT_EQ(p->unmerged_count(), 2u);
  EXPECT_EQ(p->unmerged_bytes(), 200.0);
}

TEST(MergePlannerTest, InterleavedHoldsUnderfullGroupMidRun) {
  auto p = MergePlanner::make(core::MergeMode::Interleaved, test_policy());
  for (int i = 0; i < 5; ++i) p->add_output(100.0);  // 500 < 900 = target*fill
  auto plan = p->plan(500, 1000, false);
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_EQ(p->unmerged_count(), 5u);
  // The final sweep flushes the remainder even though it is underfull.
  plan = p->plan(1000, 1000, true);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0], 500.0);
  EXPECT_TRUE(p->drained());
}

TEST(MergePlannerTest, InterleavedGroupSizingMatchesCorePolicy) {
  // Outputs of 400 bytes against a 1000-byte target, min_fill 0.9: greedy
  // FIFO grouping packs three per group (1200 >= 900; two would be 800).
  auto p = MergePlanner::make(core::MergeMode::Interleaved, test_policy());
  for (int i = 0; i < 9; ++i) p->add_output(400.0);
  auto plan = p->plan(500, 1000, false);
  ASSERT_EQ(plan.groups.size(), 3u);
  for (const double g : plan.groups) EXPECT_EQ(g, 1200.0);
  EXPECT_TRUE(p->drained());
}

TEST(MergePlannerTest, SequentialPlansOnlyAfterAnalysis) {
  auto p = MergePlanner::make(core::MergeMode::Sequential, test_policy());
  EXPECT_STREQ(p->name(), "sequential");
  for (int i = 0; i < 10; ++i) p->add_output(500.0);
  // Mid-run, even at 99%: nothing.
  EXPECT_TRUE(p->plan(990, 1000, false).groups.empty());
  // Analysis complete: the whole pool is grouped, remainder included.
  const auto plan = p->plan(1000, 1000, true);
  const double total =
      std::accumulate(plan.groups.begin(), plan.groups.end(), 0.0);
  EXPECT_EQ(total, 5000.0);
  EXPECT_FALSE(plan.groups.empty());
  EXPECT_TRUE(p->drained());
}

TEST(MergePlannerTest, HadoopTriggersOnceAndKeepsPool) {
  auto p = MergePlanner::make(core::MergeMode::Hadoop, test_policy());
  EXPECT_STREQ(p->name(), "hadoop");
  for (int i = 0; i < 8; ++i) p->add_output(300.0);
  EXPECT_FALSE(p->plan(500, 1000, false).start_hadoop);
  // Analysis done: ask the Engine to start the Map-Reduce, exactly once.
  EXPECT_TRUE(p->plan(1000, 1000, true).start_hadoop);
  EXPECT_FALSE(p->plan(1000, 1000, true).start_hadoop);
  // The pool drains through take_hadoop_groups(), not worker-dispatched
  // groups.
  EXPECT_EQ(p->unmerged_count(), 8u);
  const auto groups = p->take_hadoop_groups();
  EXPECT_FALSE(groups.empty());
  const double total = std::accumulate(groups.begin(), groups.end(), 0.0);
  EXPECT_EQ(total, 8 * 300.0);
  for (std::size_t i = 0; i + 1 < groups.size(); ++i)
    EXPECT_GE(groups[i], 1000.0);  // reduce groups reach the target size
  EXPECT_TRUE(p->drained());
}

TEST(MergePlannerTest, ReturnedGroupReentersPool) {
  auto p = MergePlanner::make(core::MergeMode::Interleaved, test_policy());
  for (int i = 0; i < 3; ++i) p->add_output(400.0);
  auto plan = p->plan(500, 1000, false);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_TRUE(p->drained());
  // The merge task failed: its inputs come back and are replanned on the
  // final sweep.
  p->return_group(plan.groups[0]);
  EXPECT_EQ(p->unmerged_bytes(), 1200.0);
  plan = p->plan(1000, 1000, true);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_EQ(plan.groups[0], 1200.0);
}

}  // namespace
}  // namespace lobster::lobsim
