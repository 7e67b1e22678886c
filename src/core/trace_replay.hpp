// trace_replay.hpp — rebuild analysis state from a structured trace.
//
// A traced run (Engine::enable_tracing, lobster_sim --trace) records every
// task's lifecycle as a span whose END event carries the authoritative
// TaskRecord numbers: status, exit code, tasklet count, cpu/lost time and
// all seven per-segment times.  That makes the trace file self-sufficient
// for offline analysis — this module turns the event stream back into
// core::TaskRecords (feedable to core::Monitor for the Figure 8 breakdown
// and the §5 diagnosis) plus the final counter-plane snapshot, without any
// access to the simulation that produced it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/db.hpp"
#include "util/trace.hpp"

namespace lobster::core {

/// Everything recoverable from one run's trace.
struct TraceReplay {
  /// One record per task span (cat "task" whose end event carries a
  /// "status" arg), in finish order.  Only the fields the Monitor and the
  /// report consume are populated: kind, status, exit_code, submit/finish
  /// times, segment times, cpu_time, lost_time and the tasklet count
  /// (synthesised ids — the trace stores the count, not the id list).
  std::vector<TaskRecord> records;
  /// Final value of every counter/gauge emitted at end of run, name-ordered
  /// (last write wins when a counter appears more than once).
  std::vector<std::pair<std::string, double>> final_counters;
  /// Task spans still open when the trace ended — non-zero means the run
  /// was truncated (time cap) with tasks in flight.
  std::size_t open_spans = 0;
};

/// Reconstruct records and counters from a parsed trace.  Events must be in
/// file order (as util::parse_trace_jsonl returns them).
[[nodiscard]] TraceReplay replay_trace(
    const std::vector<util::TraceEvent>& events);

}  // namespace lobster::core
