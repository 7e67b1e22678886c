#include "core/merge.hpp"

#include <cstdio>
#include <stdexcept>

namespace lobster::core {

const char* to_string(MergeMode m) {
  switch (m) {
    case MergeMode::Sequential: return "sequential";
    case MergeMode::Hadoop: return "hadoop";
    case MergeMode::Interleaved: return "interleaved";
  }
  return "?";
}

std::vector<MergeGroup> plan_merges(const std::vector<OutputRecord>& outputs,
                                    const MergePolicy& policy, bool only_full,
                                    std::uint64_t name_seed) {
  if (policy.target_bytes <= 0.0)
    throw std::invalid_argument("merge: target_bytes must be positive");
  std::vector<MergeGroup> groups;
  MergeGroup current;
  std::uint64_t serial = name_seed;
  auto flush = [&] {
    if (current.output_ids.empty()) return;
    char buf[64];
    std::snprintf(buf, sizeof buf, "merged_%06llu.root",
                  static_cast<unsigned long long>(serial++));
    current.merged_path = buf;
    groups.push_back(std::move(current));
    current = MergeGroup{};
  };
  for (const auto& out : outputs) {
    if (out.merged)
      throw std::logic_error("merge: output already merged: " + out.path);
    if (!current.output_ids.empty() &&
        current.total_bytes + out.bytes > policy.target_bytes)
      flush();
    current.output_ids.push_back(out.output_id);
    current.total_bytes += out.bytes;
    if (current.total_bytes >= policy.target_bytes * policy.min_fill) flush();
  }
  if (!only_full) flush();
  return groups;
}

bool interleave_ready(const Db& db, const MergePolicy& policy) {
  const auto counts = db.tasklet_status_counts();
  std::size_t done = 0, total = 0;
  for (const auto& [status, n] : counts) {
    total += n;
    if (status == TaskletStatus::Processed || status == TaskletStatus::Merged)
      done += n;
  }
  if (total == 0) return false;
  return static_cast<double>(done) / static_cast<double>(total) >=
         policy.start_fraction;
}

}  // namespace lobster::core
