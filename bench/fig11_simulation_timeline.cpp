// fig11_simulation_timeline — reproduces Figure 11: "The time evolution of
// a simulation run on nearly 20K cores over eight hours.  From the top:
// number of concurrent tasks running; time to setup the software release
// and initialize the environment; time to stage-out data from local to
// permanent storage; and exit code of failed tasks as a function of time.
// At the beginning of the run, the release setup time peaks around 400
// minutes as cold worker caches are filled simultaneously.  During this
// period, high load on the squid proxy cache is responsible for a small
// number of task failures. After most caches are filled, the release setup
// time drops, as does the prevalence of tasks exiting with squid related
// failures."
//
// --advisor-gate mode runs the scenario twice through one Campaign —
// advisor off, then advisor on (src/lobsim/advisor.hpp) — and exits
// non-zero unless the advisor-on run achieves strictly higher goodput.
// The advisor's lever here is the SetupTime rule: when cold-cache setup
// wall crosses the threshold it throttles dispatch, so the squid serves
// fewer concurrent fetchers, each finishes inside the connect timeout,
// and no service work is wasted on timed-out transfers.  --cores /
// --tasklets scale the scenario down for CI (the squid and chirp rates
// scale with the core count so the same overload binds); --trace-prefix
// writes <prefix>-off.jsonl / <prefix>-on.jsonl so `lobster_compare
// --diff` can attribute the win to the "env_setup" bucket.
//
// The timeline run writes BENCH_fig11.json (kernel events/s over
// engine.run()) for the CI perf gate, which runs it at `--cores 1000`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
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

int run_advisor_gate(lobster::lobsim::SimulationRunScenario s,
                     const std::string& trace_prefix) {
  using namespace lobster;
  // The figure run's burst grant admits the whole pool inside one advisor
  // period — every cold-cache population is already queued at the squid
  // before the first windowed symptom exists, and no reactive controller
  // can shed a cohort admitted before it could observe anything.  The gate
  // instead uses a gradual grant (the fig10-style ramp), so the overload
  // develops on the control loop's timescale: worker arrivals outpace the
  // squid's population service rate, the connect queue crosses the timeout,
  // and the advisor can pace admissions while the symptom is live.
  s.cluster.ramp_seconds = 4.0 * 3600.0;
  // Calm the availability churn for the gate: eviction wall rides the same
  // latency feedback the squid storm creates and would swamp the diff's
  // attribution with the "failed" bucket — the outage/eviction channel is
  // fig10's gate.  This one isolates the squid channel, so the win must
  // show up as env_setup wall.
  s.cluster.availability.scale_hours = 64.0;
  // Overload thrash on the squid (the Figure 5 knee): past half its
  // connection budget the proxy pays retransmit inflation per admitted
  // request.  This is what makes the cold-cache storm *wasteful* rather
  // than merely slow — a work-conserving proxy serves the same byte total
  // at any concurrency, and no admission controller could beat the
  // uncontrolled run.  Both arms run the same proxy.
  s.cluster.squid.thrash = 1.5;
  s.cluster.squid.thrash_knee = s.cluster.squid.max_connections / 2;
  lobsim::RunSpec off;
  off.label = "advisor-off";
  off.cluster = s.cluster;
  off.workload = s.workload;
  off.seed = s.seed;
  if (!trace_prefix.empty()) off.trace_path = trace_prefix + "-off.jsonl";

  lobsim::RunSpec on = off;
  on.label = "advisor-on";
  on.advisor.enabled = true;
  // Operator tuning for this scenario: the completion-window setup rule
  // observes the cold-cache storm a full task latency late — its throttles
  // land after the symptom and idle hot cores (a windowed fraction never
  // exceeds 1, so 1.1 disables it).  The proxy-plane waste rate
  // (cvmfs.squid.bytes_thrashed) carries the same "overloaded squid"
  // diagnosis while it is live, and drives the throttle instead.
  on.advisor.thresholds.setup_fraction = 1.1;
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

  auto s = lobsim::simulation_run_scenario();
  if (cores > 0) {
    // Scale the shared bottlenecks with the core count so a smaller run
    // hits the same cold-cache squid overload; the connect timeout stays
    // fixed so the exit-174 trickle persists at the smaller scale.
    const double f = static_cast<double>(cores) /
                     static_cast<double>(s.cluster.target_cores);
    s.cluster.target_cores = cores;
    s.cluster.federation.campus_uplink_rate *= f;
    s.cluster.squid.service_rate *= f;
    s.cluster.squid.upstream_rate *= f;
    s.cluster.squid.max_connections = std::max<std::int64_t>(
        32, static_cast<std::int64_t>(
                static_cast<double>(s.cluster.squid.max_connections) * f));
    s.cluster.chirp.nic_rate *= f;
  }
  if (tasklets > 0) s.workload.num_tasklets = tasklets;

  if (advisor_gate) return run_advisor_gate(std::move(s), trace_prefix);

  std::puts("=== Figure 11: Timeline of the Simulation (MC) Run ===");

  lobsim::Engine engine(s.cluster, s.workload, s.seed);
  benchjson::Stopwatch sw;
  sw.start();
  const auto& m = engine.run(10.0 * 86400.0);
  benchjson::write_snapshot(
      "fig11",
      {static_cast<double>(engine.sim().events_executed()), sw.stop()});

  const auto& mon = m.monitor;
  const auto setup = mon.setup_time_timeline();
  const auto stageout = mon.stageout_time_timeline();
  const std::size_t bins = mon.running_timeline().nbins();
  const double bin_w = mon.completed_timeline().bin_width();

  std::puts("-- top: concurrent tasks running (1 char = 500 tasks) --");
  for (std::size_t b = 0; b < bins; ++b) {
    const double running = mon.running_timeline().mean_level(b);
    std::printf("  %7s |%s %.0f\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                util::bar(running, 20000.0, 40).c_str(), running);
  }

  double setup_peak = 0.0;
  for (double v : setup) setup_peak = std::max(setup_peak, v);
  std::puts("\n-- second: mean software setup time per bin --");
  for (std::size_t b = 0; b < setup.size(); ++b) {
    std::printf("  %7s |%s %s\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                util::bar(setup[b], setup_peak, 40).c_str(),
                util::format_duration(setup[b]).c_str());
  }

  double so_peak = 0.0;
  for (double v : stageout) so_peak = std::max(so_peak, v);
  std::puts("\n-- third: mean stage-out time per bin (Chirp waves) --");
  for (std::size_t b = 0; b < stageout.size(); ++b) {
    std::printf("  %7s |%s %s\n",
                util::format_duration(static_cast<double>(b) * bin_w).c_str(),
                util::bar(stageout[b], so_peak, 40).c_str(),
                util::format_duration(stageout[b]).c_str());
  }

  std::puts("\n-- bottom: failed-task exit codes over time --");
  std::map<int, util::Histogram> by_code;
  for (const auto& [t, code] : m.failure_events) {
    auto it = by_code.find(code);
    if (it == by_code.end())
      it = by_code
               .emplace(code, util::Histogram(
                                  std::max<std::size_t>(bins, 1), 0.0,
                                  static_cast<double>(bins) * bin_w))
               .first;
    it->second.fill(t);
  }
  for (auto& [code, hist] : by_code) {
    std::printf("  exit %d (%s): %zu failures\n", code,
                code == 174 ? "squid/env setup" : "other", hist.entries());
    std::fputs(hist.ascii(40).c_str(), stdout);
  }

  std::printf(
      "\nRun summary: peak %zu concurrent tasks; %llu completed; %llu squid"
      "\ntimeouts; setup-time peak %s; makespan %s.\n",
      m.peak_running, static_cast<unsigned long long>(m.tasks_completed),
      static_cast<unsigned long long>(engine.squid(0).timeouts()),
      util::format_duration(setup_peak).c_str(),
      util::format_duration(m.makespan).c_str());
  std::puts("\nPaper-shape check: ~20k concurrent tasks; setup-time peak of");
  std::puts("hundreds of minutes while cold caches fill, then a sharp drop;");
  std::puts("periodic stage-out waves; squid-related failures concentrated");
  std::puts("early and decaying after caches are hot.");
  return 0;
}
