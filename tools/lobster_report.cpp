// lobster_report — offline analysis of a Lobster DB journal (paper §5).
//
// "All of these records are stored in the Lobster DB, so that it becomes
// easy to generate histograms and time lines showing the distribution of
// behavior at each stage of the execution."  This tool is that drill-down:
// point it at a journal written with Db::save_journal() and it prints the
// workflow state, per-segment time distributions, the runtime breakdown,
// and the §5 diagnosis.
//
// Usage: lobster_report <journal.jsonl> [--csv]
//        lobster_report --trace <trace.jsonl>
//   --csv    additionally dump the task table as CSV to stdout
//   --trace  analyse a structured trace written by `lobster_sim --trace`
//            (or Engine::enable_tracing) instead of a DB journal: the file
//            is validated (well-formed JSON, monotone timestamps, balanced
//            begin/end spans — non-zero exit on failure, so CI can use this
//            as a smoke check), then the per-task end-event payloads are
//            replayed into a Monitor for the runtime breakdown and the §5
//            diagnosis, and the final counter plane is printed.
//
// Exit codes: 2 for a command-line error (an unknown flag, a second file,
// --csv or a journal beside --trace: the usage line is printed), 1 for a
// file that cannot be read or is malformed.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/db.hpp"
#include "core/monitor.hpp"
#include "core/trace_replay.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {

/// Counter-plane table, shared by the journal and trace reports (the
/// journal synthesises the same name->value shape via Db::counter_plane so
/// both paths render identically).
void print_counter_plane(
    const char* title,
    const std::vector<std::pair<std::string, double>>& counters) {
  if (counters.empty()) return;
  std::printf("\n%s:\n", title);
  util::Table table({"counter", "value"});
  for (const auto& [name, value] : counters) {
    // Casting a double >= 2^63 to long long is UB, so range-check before
    // treating the value as an integer; out-of-range counters fall through
    // to %.0f, which renders them exactly for any uint64-backed counter.
    const bool integral =
        std::floor(value) == value && std::fabs(value) < 9.2e18;
    if (integral) {
      table.row({name, util::Table::integer(static_cast<long long>(value))});
    } else if (std::floor(value) == value) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.0f", value);
      table.row({name, buf});
    } else {
      table.row({name, util::Table::num(value, 1)});
    }
  }
  std::fputs(table.str().c_str(), stdout);
}

/// The Figure 8 table, shared by the journal and trace reports.
void print_breakdown_and_diagnosis(const core::Monitor& monitor) {
  const auto b = monitor.breakdown();
  std::puts("\nruntime breakdown (Figure 8 form):");
  util::Table breakdown({"phase", "time", "fraction"});
  const double total = b.total();
  auto frac = [total](double v) {
    return total > 0.0 ? util::Table::num(100.0 * v / total, 1) + " %" : "-";
  };
  breakdown.row({"Task CPU Time", util::format_duration(b.cpu), frac(b.cpu)});
  breakdown.row({"Task I/O Time", util::format_duration(b.io), frac(b.io)});
  breakdown.row({"Task Failed", util::format_duration(b.failed),
                 frac(b.failed)});
  breakdown.row({"WQ Stage In", util::format_duration(b.stage_in + b.other),
                 frac(b.stage_in + b.other)});
  breakdown.row({"WQ Stage Out", util::format_duration(b.stage_out),
                 frac(b.stage_out)});
  std::fputs(breakdown.str().c_str(), stdout);

  std::puts("\ndiagnosis (paper SS5 rules):");
  const auto diags = monitor.diagnose();
  if (diags.empty()) std::puts("  no bottlenecks detected");
  for (const auto& d : diags)
    std::printf("  [%.2f] %s\n         -> %s\n", d.severity, d.symptom.c_str(),
                d.advice.c_str());
}

int report_trace(const std::string& path) {
  std::vector<util::TraceEvent> events;
  try {
    events = util::read_trace_jsonl(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const std::string problem = util::validate_trace(events);
  if (!problem.empty()) {
    std::fprintf(stderr, "error: invalid trace %s: %s\n", path.c_str(),
                 problem.c_str());
    return 1;
  }

  const core::TraceReplay replay = core::replay_trace(events);
  std::printf("== Lobster trace report: %s ==\n\n", path.c_str());
  std::printf("%zu events, %zu task records", events.size(),
              replay.records.size());
  if (replay.open_spans > 0)
    std::printf(" (%zu spans still open — truncated run)", replay.open_spans);
  std::puts("");

  core::Monitor monitor(600.0);
  std::uint64_t tasklets = 0;
  for (const auto& rec : replay.records) {
    monitor.on_task_finished(rec);
    if (rec.status == core::TaskStatus::Done &&
        rec.kind == core::TaskKind::Analysis)
      tasklets += rec.tasklets.size();
  }
  util::Table state({"result", "value"});
  state.row({"tasks seen", util::Table::integer(
                               static_cast<long long>(monitor.tasks_seen()))});
  state.row({"tasks failed / evicted",
             util::Table::integer(
                 static_cast<long long>(monitor.tasks_failed())) +
                 " / " +
                 util::Table::integer(
                     static_cast<long long>(monitor.tasks_evicted()))});
  state.row({"tasklets processed",
             util::Table::integer(static_cast<long long>(tasklets))});
  std::fputs(state.str().c_str(), stdout);

  print_breakdown_and_diagnosis(monitor);

  print_counter_plane("final counter plane", replay.final_counters);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string trace;
  bool want_csv = false;
  util::Args args(argc, argv,
                  "<journal.jsonl> [--csv]\n"
                  "       lobster_report --trace <trace.jsonl>");
  while (args.next()) {
    if (args.is("--csv"))
      want_csv = true;
    else if (args.is("--trace"))
      trace = args.text();
    else if (path.empty() && args.positional())
      path = args.token();
    else
      args.usage();
  }
  if (!trace.empty()) {
    if (!path.empty() || want_csv)
      args.usage("--trace takes no journal and no --csv");
    return report_trace(trace);
  }
  if (path.empty()) args.usage("no journal given");

  core::Db db;
  try {
    db = core::Db::load_journal(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("== Lobster DB report: %s ==\n\n", path.c_str());

  // ---- workflow state --------------------------------------------------------
  util::Table state({"tasklet status", "count"});
  for (const auto& [status, n] : db.tasklet_status_counts())
    state.row({core::to_string(status),
               util::Table::integer(static_cast<long long>(n))});
  std::fputs(state.str().c_str(), stdout);

  util::Table tasks({"task status", "count"});
  for (const auto& [status, n] : db.task_status_counts())
    tasks.row({core::to_string(status),
               util::Table::integer(static_cast<long long>(n))});
  std::fputs(tasks.str().c_str(), stdout);

  // ---- per-segment totals -----------------------------------------------------
  const auto totals = db.segment_totals();
  double grand = 0.0;
  for (double v : totals) grand += v;
  util::Table segments({"segment", "total time", "fraction"});
  for (std::size_t s = 0; s < core::kNumSegments; ++s) {
    segments.row(
        {core::to_string(static_cast<core::Segment>(s)),
         util::format_duration(totals[s]),
         grand > 0.0 ? util::Table::num(100.0 * totals[s] / grand, 1) + " %"
                     : "-"});
  }
  segments.row({"(lost to eviction)", util::format_duration(db.total_lost_time()),
                ""});
  std::fputs(segments.str().c_str(), stdout);

  // ---- segment histograms ------------------------------------------------------
  for (const auto segment :
       {core::Segment::EnvSetup, core::Segment::Execute,
        core::Segment::StageOut}) {
    // Range heuristic: four times the per-task mean of this segment.
    const double mean =
        totals[static_cast<std::size_t>(segment)] /
        static_cast<double>(std::max<std::size_t>(1, db.num_tasks()));
    const auto h = db.segment_histogram(segment, 12, std::max(1.0, 4.0 * mean));
    std::printf("\nsegment '%s' duration distribution:\n",
                core::to_string(segment));
    std::fputs(h.ascii(40).c_str(), stdout);
  }

  // ---- reconstructed monitor + diagnosis ---------------------------------------
  core::Monitor monitor(600.0);
  for (std::uint64_t id = 1; id <= db.num_tasks(); ++id) {
    const auto& rec = db.task(id);
    if (rec.status == core::TaskStatus::Done ||
        rec.status == core::TaskStatus::Failed ||
        rec.status == core::TaskStatus::Evicted)
      monitor.on_task_finished(rec);
  }
  print_breakdown_and_diagnosis(monitor);

  // The journal's aggregates rendered in the trace plane's counter shape —
  // one renderer for both modes, so operators compare like with like.
  print_counter_plane("counter plane (from journal)", db.counter_plane());

  if (want_csv) {
    std::puts("\n-- task table (CSV) --");
    std::fputs(db.tasks_csv().c_str(), stdout);
  }
  return 0;
}
