// fig10_processing_timeline — reproduces Figure 10: "The time evolution of
// a data processing run on nearly 10K cores over two days.  The top graph
// shows the number of concurrent tasks running, the middle shows the number
// of tasks completed or failed in each time unit, and the bottom graph
// shows the (CPU-time/wall-clock) ratio in each time unit.  Note that the
// maximum possible ratio is approximately 70%, as discussed in Section 4.1.
// The burst of failures midway is due to a transient outage of the
// wide-area data handling system."
//
// --advisor-gate mode runs the scenario twice through one Campaign —
// advisor off, then advisor on (the online mitigation loop of
// src/lobsim/advisor.hpp) — and exits non-zero unless the advisor-on run
// achieves strictly higher goodput (tasklets per hour of makespan).  The
// advisor's lever here is the FailureBurst rule: during the outage it
// drains dispatch to a probe trickle, so slots are not cycling through
// doomed dispatch -> stream-open failure -> failure backoff when the WAN
// returns.  --cores / --tasklets scale the scenario down for CI (the
// campus uplink and squid scale with the core count so the same physics
// binds); --trace-prefix writes <prefix>-off.jsonl / <prefix>-on.jsonl so
// `lobster_compare --diff` can attribute the win to the "failed" bucket.
//
// The timeline run writes BENCH_fig10.json (kernel events/s over
// engine.run()) for the CI perf gate, which runs it at `--cores 1000`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

double goodput(const lobster::lobsim::RunStats& s) {
  return s.makespan > 0.0
             ? static_cast<double>(s.tasklets_processed) / (s.makespan / 3600.0)
             : 0.0;
}

int run_advisor_gate(lobster::lobsim::DataProcessingScenario s,
                     const std::string& trace_prefix) {
  using namespace lobster;
  lobsim::RunSpec off;
  off.label = "advisor-off";
  off.cluster = s.cluster;
  off.workload = s.workload;
  off.seed = s.seed;
  off.outage_start = s.outage_start;
  off.outage_duration = s.outage_duration;
  if (!trace_prefix.empty()) off.trace_path = trace_prefix + "-off.jsonl";

  lobsim::RunSpec on = off;
  on.label = "advisor-on";
  on.advisor.enabled = true;
  // One rung of the sizing ladder only: halving the task size matches the
  // eviction climate (the Figure 3/12 result), but letting the ladder
  // ratchet to 1 tasklet would multiply sandbox stage-in on the shared
  // foreman uplinks and swamp the outage attribution the gate asserts.
  on.advisor.min_task_size =
      std::max<std::uint32_t>(1, s.workload.tasklets_per_task / 2);
  if (!trace_prefix.empty()) on.trace_path = trace_prefix + "-on.jsonl";

  lobsim::Campaign campaign(2);
  campaign.add(off);
  campaign.add(on);
  const auto& results = campaign.run();
  for (const auto& r : results)
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s run failed: %s\n", r.label.c_str(),
                   r.error.c_str());
      return 1;
    }
  const lobsim::RunStats& a = results[0].stats;
  const lobsim::RunStats& b = results[1].stats;

  util::Table table({"metric", "advisor-off", "advisor-on"});
  table.row({"makespan", util::format_duration(a.makespan),
             util::format_duration(b.makespan)});
  table.row({"goodput (tasklets/h)", util::Table::num(goodput(a), 1),
             util::Table::num(goodput(b), 1)});
  table.row({"tasks failed",
             util::Table::integer(static_cast<long long>(a.tasks_failed)),
             util::Table::integer(static_cast<long long>(b.tasks_failed))});
  table.row({"tasklets retried",
             util::Table::integer(static_cast<long long>(a.tasklets_retried)),
             util::Table::integer(
                 static_cast<long long>(b.tasklets_retried))});
  table.row(
      {"advisor ticks/shr/thr/drn/rst", "-",
       util::Table::integer(static_cast<long long>(b.advisor_ticks)) + "/" +
           util::Table::integer(static_cast<long long>(b.advisor_shrinks)) +
           "/" +
           util::Table::integer(static_cast<long long>(b.advisor_throttles)) +
           "/" +
           util::Table::integer(static_cast<long long>(b.advisor_drains)) +
           "/" +
           util::Table::integer(static_cast<long long>(b.advisor_restores))});
  std::fputs(table.str().c_str(), stdout);

  if (!(a.completed && b.completed)) {
    std::puts("\nGATE FAIL: a run hit the time cap.");
    return 1;
  }
  if (!(goodput(b) > goodput(a))) {
    std::printf("\nGATE FAIL: advisor-on goodput %.1f <= advisor-off %.1f.\n",
                goodput(b), goodput(a));
    return 1;
  }
  std::printf("\nGATE PASS: advisor-on goodput %.1f > advisor-off %.1f "
              "(makespan %s vs %s).\n",
              goodput(b), goodput(a),
              util::format_duration(b.makespan).c_str(),
              util::format_duration(a.makespan).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lobster;

  bool advisor_gate = false;
  std::size_t cores = 0;
  std::uint64_t tasklets = 0;
  std::string trace_prefix;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--advisor-gate")
      advisor_gate = true;
    else if (arg == "--cores")
      cores = std::strtoull(value("--cores"), nullptr, 10);
    else if (arg == "--tasklets")
      tasklets = std::strtoull(value("--tasklets"), nullptr, 10);
    else if (arg == "--trace-prefix")
      trace_prefix = value("--trace-prefix");
    else {
      std::fprintf(stderr,
                   "usage: %s [--advisor-gate] [--cores N] [--tasklets N] "
                   "[--trace-prefix P]\n",
                   argv[0]);
      return 2;
    }
  }

  auto s = lobsim::data_processing_scenario();
  if (cores > 0) {
    // Scale the shared bottlenecks with the core count so a smaller run
    // exercises the same saturated-uplink physics.
    const double f = static_cast<double>(cores) /
                     static_cast<double>(s.cluster.target_cores);
    s.cluster.target_cores = cores;
    s.cluster.federation.campus_uplink_rate *= f;
    s.cluster.squid.max_connections = std::max<std::int64_t>(
        64, static_cast<std::int64_t>(
                static_cast<double>(s.cluster.squid.max_connections) * f));
  }
  if (tasklets > 0) s.workload.num_tasklets = tasklets;

  if (advisor_gate) return run_advisor_gate(std::move(s), trace_prefix);

  std::puts("=== Figure 10: Timeline of the Data Processing Run ===");

  lobsim::Engine engine(s.cluster, s.workload, s.seed);
  engine.schedule_outage(s.outage_start, s.outage_duration);
  benchjson::Stopwatch sw;
  sw.start();
  const auto& m = engine.run(10.0 * 86400.0);
  benchjson::write_snapshot(
      "fig10",
      {static_cast<double>(engine.sim().events_executed()), sw.stop()});

  const auto& mon = m.monitor;
  const auto eff = mon.efficiency_timeline();
  const std::size_t bins =
      std::max({mon.completed_timeline().nbins(), mon.failed_timeline().nbins(),
                mon.running_timeline().nbins()});
  const double bin_w = mon.completed_timeline().bin_width();

  std::printf("Outage window: %s - %s\n\n",
              util::format_duration(s.outage_start).c_str(),
              util::format_duration(s.outage_start + s.outage_duration).c_str());
  std::puts("-- top: concurrent tasks running (1 char = 250 tasks) --");
  for (std::size_t b = 0; b < bins; ++b) {
    const double running = mon.running_timeline().mean_level(b);
    std::printf("  %7s |%s %.0f\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                util::bar(running, 10000.0, 40).c_str(), running);
  }

  std::puts("\n-- middle: tasks completed '#' / failed 'x' per bin (1 char =");
  std::puts("   25 tasks) --");
  for (std::size_t b = 0; b < bins; ++b) {
    std::string bar;
    bar.append(
        static_cast<std::size_t>(mon.completed_timeline().sum(b) / 25.0), '#');
    bar.append(static_cast<std::size_t>(mon.failed_timeline().sum(b) / 25.0),
               'x');
    std::printf("  %7s |%s\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                bar.c_str());
  }

  std::puts("\n-- bottom: CPU-time / wall-clock per bin (max ~0.70, Fig. 3) --");
  for (std::size_t b = 0; b < bins && b < eff.size(); ++b) {
    std::printf("  %7s |%s %.2f\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                util::bar(eff[b], 1.0, 40).c_str(), eff[b]);
  }

  // Plateau efficiency: mean over the saturated middle of the run.
  double plateau = 0.0;
  int plateau_bins = 0;
  for (std::size_t b = 0; b < eff.size(); ++b) {
    const double t = static_cast<double>(b) * bin_w;
    if (t >= 2.5 * 3600.0 && t <= 6.0 * 3600.0 && eff[b] > 0.0) {
      plateau += eff[b];
      ++plateau_bins;
    }
  }
  if (plateau_bins > 0) plateau /= plateau_bins;
  std::printf(
      "\nRun summary: peak %zu concurrent tasks; %llu completed, %llu failed,"
      "\n%llu evicted; plateau efficiency %.2f; makespan %s.\n",
      m.peak_running, static_cast<unsigned long long>(m.tasks_completed),
      static_cast<unsigned long long>(m.tasks_failed),
      static_cast<unsigned long long>(m.tasks_evicted), plateau,
      util::format_duration(m.makespan).c_str());
  std::puts("\nPaper-shape check: ramp to ~10k running tasks, failure burst");
  std::puts("at the outage with an efficiency dip, efficiency otherwise near");
  std::puts("the ~0.70 ceiling of Section 4.1.");
  return 0;
}
