#include "core/trace_replay.hpp"

#include <algorithm>
#include <cstdint>
#include <map>

namespace lobster::core {

namespace {
/// Segment index for an end-event arg key, or kNumSegments when the key is
/// not a segment name.
std::size_t segment_index(const std::string& key) {
  for (std::size_t s = 0; s < kNumSegments; ++s)
    if (key == to_string(static_cast<Segment>(s))) return s;
  return kNumSegments;
}
}  // namespace

TraceReplay replay_trace(const std::vector<util::TraceEvent>& events) {
  TraceReplay out;
  // Open task spans by track: one slot runs one task at a time, so a plain
  // begin-time per (track, name) pair suffices — no stack needed.
  std::map<std::pair<std::uint64_t, std::string>, double> open;
  std::map<std::string, double> counters;

  for (const auto& ev : events) {
    if (ev.phase == 'C') {
      counters[ev.name] = ev.value;
      continue;
    }
    if (ev.cat != "task") continue;
    const auto key = std::make_pair(ev.track, ev.name);
    if (ev.phase == 'B') {
      open[key] = ev.t;
      continue;
    }
    if (ev.phase != 'E') continue;
    const auto it = open.find(key);
    const double begin = it != open.end() ? it->second : ev.t;
    if (it != open.end()) open.erase(it);

    // Only spans stamped with the task outcome become records; auxiliary
    // task-cat spans (e.g. hadoop reducers) carry no "status" arg.
    const double status = ev.arg("status", -1.0);
    if (status < 0.0) continue;

    TaskRecord rec;
    rec.task_id = static_cast<std::uint64_t>(out.records.size() + 1);
    rec.kind = ev.name == "merge" ? TaskKind::Merge : TaskKind::Analysis;
    rec.status = static_cast<TaskStatus>(static_cast<int>(status));
    rec.exit_code = static_cast<int>(ev.arg("exit", 0.0));
    rec.submit_time = begin;
    rec.finish_time = ev.t;
    rec.cpu_time = ev.arg("cpu", 0.0);
    rec.lost_time = ev.arg("lost", 0.0);
    for (const auto& [key2, value] : ev.args) {
      const std::size_t s = segment_index(key2);
      if (s < kNumSegments) rec.segment_time[s] = value;
    }
    // The trace records the count, not the id list; synthesise ids so
    // consumers that only size() the vector still work.
    const auto n = static_cast<std::size_t>(ev.arg("tasklets", 0.0));
    rec.tasklets.resize(n);
    for (std::size_t i = 0; i < n; ++i) rec.tasklets[i] = i + 1;
    out.records.push_back(std::move(rec));
  }

  out.open_spans = open.size();
  out.final_counters.assign(counters.begin(), counters.end());
  return out;
}

}  // namespace lobster::core
