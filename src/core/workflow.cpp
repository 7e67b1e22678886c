#include "core/workflow.hpp"

#include <stdexcept>

namespace lobster::core {

const char* to_string(TaskletStatus s) {
  switch (s) {
    case TaskletStatus::Pending: return "pending";
    case TaskletStatus::Assigned: return "assigned";
    case TaskletStatus::Processed: return "processed";
    case TaskletStatus::Merged: return "merged";
    case TaskletStatus::Failed: return "failed";
  }
  return "?";
}

std::vector<Tasklet> decompose(const dbs::Dataset& dataset,
                               const DecompositionSpec& spec) {
  if (spec.lumis_per_tasklet == 0)
    throw std::invalid_argument("decompose: lumis_per_tasklet must be > 0");
  if (spec.output_ratio < 0.0)
    throw std::invalid_argument("decompose: negative output ratio");

  std::vector<Tasklet> out;
  std::uint64_t next_id = 1;
  for (const auto& file : dataset.files) {
    if (file.lumis.empty()) continue;
    const std::size_t n = file.lumis.size();
    // Even byte/event split across the file's tasklets.
    for (std::size_t begin = 0; begin < n; begin += spec.lumis_per_tasklet) {
      const std::size_t end = std::min(
          begin + static_cast<std::size_t>(spec.lumis_per_tasklet), n);
      Tasklet t;
      t.id = next_id++;
      t.input_lfn = file.lfn;
      t.first_lumi = file.lumis[begin];
      t.last_lumi = file.lumis[end - 1];
      const double frac =
          static_cast<double>(end - begin) / static_cast<double>(n);
      t.events = static_cast<std::uint64_t>(
          static_cast<double>(file.events) * frac);
      t.input_bytes = file.size_bytes * frac;
      t.expected_output_bytes = t.input_bytes * spec.output_ratio;
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace lobster::core
