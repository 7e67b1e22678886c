// merge_planner.hpp — output-merge planning, extracted from the Engine.
//
// Completed analysis outputs (10-100 MB each; paper §4.4) must be merged
// into 3-4 GB files before publication.  Each of the three strategies lives
// behind one interface, so the Figure 7 comparison is a policy swap:
//
//  * Sequential  — no merge tasks until every analysis task is done, then
//                  the whole pool is grouped and dispatched like analysis;
//  * Interleaved — groups are planned as soon as >= start_fraction of the
//                  workflow is processed and enough outputs exist to fill a
//                  merged file (the production mode);
//  * Hadoop      — nothing is dispatched to workers; when analysis ends the
//                  plan asks the Engine to run the in-storage Map-Reduce
//                  over take_hadoop_groups().
//
// The planner owns the unmerged-output pool and is pure logic over sizes —
// no DES types — mirroring core::plan_merges() semantics (greedy FIFO
// grouping, full groups only mid-run, remainder flushed on the final
// sweep).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/merge.hpp"

namespace lobster::lobsim {

/// Outcome of one planning pass.
struct MergePlan {
  /// Input volume of each newly planned merge task (worker-dispatched).
  std::vector<double> groups;
  /// Hadoop mode: start the in-storage Map-Reduce job now (at most once).
  bool start_hadoop = false;
};

class MergePlanner {
 public:
  static std::unique_ptr<MergePlanner> make(core::MergeMode mode,
                                            const core::MergePolicy& policy);
  virtual ~MergePlanner() = default;
  virtual const char* name() const = 0;
  virtual core::MergeMode mode() const = 0;

  // ---- the unmerged-output pool (owned here; the Engine only feeds it) ----

  /// A completed analysis task's output enters the pool.
  void add_output(double bytes) {
    outputs_.push_back(bytes);
    bytes_ += bytes;
  }
  /// A failed merge task's inputs return to the pool as one blob.
  void return_group(double bytes) { add_output(bytes); }

  double unmerged_bytes() const { return bytes_; }
  std::size_t unmerged_count() const { return outputs_.size(); }
  bool drained() const { return outputs_.empty(); }

  /// Called after every task completion.  `analysis_complete` marks the
  /// final sweep: every tasklet processed, nothing pending retry.
  virtual MergePlan plan(std::uint64_t tasklets_done,
                         std::uint64_t num_tasklets,
                         bool analysis_complete) = 0;

  /// Hadoop: drain the pool into reduce groups near the target size (the
  /// map phase of the §4.4 job).  Leaves the pool empty.
  std::vector<double> take_hadoop_groups();

 protected:
  explicit MergePlanner(const core::MergePolicy& policy) : policy_(policy) {}

  /// Greedy FIFO grouping: emit groups of >= target*min_fill bytes; when
  /// `final_sweep`, also flush the underfull remainder.  The last output of
  /// a group may overshoot the target ("files of 3-4 GB", paper §4.4) —
  /// insisting on an exact ceiling could make full groups unconstructible
  /// for large outputs.
  std::vector<double> take_groups(bool final_sweep);

  core::MergePolicy policy_;
  std::deque<double> outputs_;
  double bytes_ = 0.0;
};

/// Merge only after the full analysis pass (Figure 7 "sequential").
class SequentialMergePlanner final : public MergePlanner {
 public:
  explicit SequentialMergePlanner(const core::MergePolicy& policy)
      : MergePlanner(policy) {}
  const char* name() const override { return "sequential"; }
  core::MergeMode mode() const override { return core::MergeMode::Sequential; }
  MergePlan plan(std::uint64_t, std::uint64_t, bool analysis_complete) override;
};

/// Merge concurrently with analysis once the workflow is warmed up
/// (Figure 7 "interleaved" — the production mode).
class InterleavedMergePlanner final : public MergePlanner {
 public:
  explicit InterleavedMergePlanner(const core::MergePolicy& policy)
      : MergePlanner(policy) {}
  const char* name() const override { return "interleaved"; }
  core::MergeMode mode() const override { return core::MergeMode::Interleaved; }
  MergePlan plan(std::uint64_t tasklets_done, std::uint64_t num_tasklets,
                 bool analysis_complete) override;
};

/// Merge inside the storage cluster via Map-Reduce (Figure 7 "hadoop").
class HadoopMergePlanner final : public MergePlanner {
 public:
  explicit HadoopMergePlanner(const core::MergePolicy& policy)
      : MergePlanner(policy) {}
  const char* name() const override { return "hadoop"; }
  core::MergeMode mode() const override { return core::MergeMode::Hadoop; }
  MergePlan plan(std::uint64_t, std::uint64_t, bool analysis_complete) override;

 private:
  bool triggered_ = false;
};

}  // namespace lobster::lobsim
