// merge.hpp — output-file merging (paper §4.4).
//
// Lobster task sizes are tuned for eviction, which "leads to significantly
// more and smaller output files compared to regular CMS workflows":
// publishing them as-is would require excessive metadata, so completed
// outputs (typically 10-100 MB) are merged into files of 3-4 GB.  Three
// strategies are implemented, matching Figure 7:
//
//  * Sequential  — after all analysis tasks are done, group outputs by size
//                  into merge tasks run like analysis tasks;
//  * Hadoop      — a Map-Reduce job inside the storage cluster: map groups
//                  the small files by target name, each reducer concatenates
//                  its group (see hdfs::run_mapreduce);
//  * Interleaved — merge tasks are created as soon as a workflow is more
//                  than 10% processed and enough finished outputs exist to
//                  fill a merged file; they run concurrently with analysis.
//                  (The mode Lobster uses in production.)
//
// The planner here is pure logic over the Lobster DB's output table, shared
// by the real scheduler, the Hadoop path and the DES scenarios.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/db.hpp"

namespace lobster::core {

enum class MergeMode : std::uint8_t { Sequential, Hadoop, Interleaved };
const char* to_string(MergeMode m);

/// One planned merge task: which outputs to concatenate into which file.
struct MergeGroup {
  std::vector<std::uint64_t> output_ids;
  double total_bytes = 0.0;
  std::string merged_path;
};

struct MergePolicy {
  /// Target size of merged files (paper: 3-4 GB).
  double target_bytes = 3.5e9;
  /// Minimum fill fraction for an interleaved merge group: groups are only
  /// formed once they can be at least this full (outputs merge only once).
  double min_fill = 0.9;
  /// Interleaved merging starts once this fraction of the workflow's
  /// tasklets is processed or merged (paper: 10%).
  double start_fraction = 0.10;
};

/// Greedy size grouping of `outputs` into merge groups near the target
/// size.  When `only_full` is set, a trailing underfull group is *not*
/// emitted (interleaved mode mid-run); a final sweep passes false to flush
/// the remainder.
std::vector<MergeGroup> plan_merges(const std::vector<OutputRecord>& outputs,
                                    const MergePolicy& policy, bool only_full,
                                    std::uint64_t name_seed);

/// True when interleaved merging may start: >= start_fraction of tasklets
/// are Processed or Merged.
bool interleave_ready(const Db& db, const MergePolicy& policy);

}  // namespace lobster::core
