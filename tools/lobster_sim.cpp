// lobster_sim — run a cluster-scale Lobster scenario from a configuration
// file and report the outcome.  This is the "plan before you burn CPU" CLI:
// describe the opportunistic cluster and the workflow in INI form, and the
// DES engine predicts makespan, efficiency, failure behaviour and the §5
// diagnosis.
//
// Usage: lobster_sim <scenario.ini> [--seeds N] [--jobs M]
//                    [--availability SPEC] [--advisor on|off]
//                    [--trace PATH] [--trace-format jsonl|chrome]
//
// Exit codes: 2 for a command-line error (an unknown flag, a second
// scenario, a missing or malformed value, a bad --availability spec: the
// usage line is printed), 1 when the scenario cannot be read or parsed or
// the run fails.
//
// With --seeds N the scenario becomes a campaign: N runs seeded
// base..base+N-1 execute across M worker threads (lobsim::Campaign), the
// first run is reported in full, and a mean +/- stddev table summarises the
// sweep.  Aggregates are submission-ordered, so --jobs does not change them.
// --availability overrides the scenario's availability model (what-if: the
// same workflow under a harsher climate).  --advisor on|off overrides the
// scenario's `[advisor]` section (the online mitigation loop; see
// src/lobsim/advisor.hpp).
//
// --trace PATH writes a structured trace of the run: per-task lifecycle
// spans, segment spans and the final counter snapshot.  jsonl is the
// line-oriented analysis format (feed it to `lobster_report --trace`);
// chrome is a Chrome-trace-event JSON loadable in Perfetto / about:tracing.
// A single seed writes exactly PATH; a seed sweep treats PATH (minus its
// extension) as a prefix and writes one `<prefix>-run<I>-seed<S>` file per
// run.  The `[trace]` scenario section (`file`, `format`) sets the same
// thing; the flags override it.
//
// Example scenario file:
//
//   [cluster]
//   cores = 5000
//   cores_per_worker = 8
//   ramp = 1h
//   availability = weibull           # or weibull:scale=8,shape=0.8 /
//                                    # trace:/path/intervals.csv /
//                                    # diurnal:amplitude=0.6,peak=14 /
//                                    # adversarial-burst:period=6h,fraction=0.5
//   availability_hours = 8           # legacy shorthand for the scale
//   evictions = true
//   uplink = 10          # Gbit/s
//   squids = 1
//   chirp_connections = 24
//
//   [workflow]
//   tasklets = 30000
//   tasklets_per_task = 6
//   tasklet_cpu = 10m
//   input_per_tasklet = 350MB
//   read_fraction = 0.3
//   output_per_tasklet = 20MB
//   access = stream            # or stage
//   merge = interleaved        # or sequential / hadoop
//   dispatch = fifo            # or tail-shrink / site-aware / lifetime /
//                              # partitioned / stealing
//   lifetime_safety = 0.25     # lifetime dispatch: fraction of the expected
//                              # remaining worker lifetime a task may fill
//   lifetime_max_tasklets = 24 # lifetime dispatch: per-task cap (0 = 4x
//                              # tasklets_per_task)
//   steal_penalty_factor = 0.5 # stealing dispatch: input fraction a stolen
//                              # task re-stages over the thief's WAN uplink
//   steal_min_backlog = 12     # stealing dispatch: smallest victim backlog
//                              # worth stealing from (0 = 2x
//                              # tasklets_per_task)
//
//   [failures]
//   outage_start = 3h          # optional WAN outage window
//   outage_duration = 30m
//
//   [run]
//   time_cap = 30d             # simulated-time budget; unfinished runs are
//                              # reported as INCOMPLETE, not as finished
//
//   [advisor]
//   enabled = true             # online mitigation loop (default off)
//   period = 5m                # observation window / tick period
//   failed_fraction = 0.2      # thresholds; see core::AdvisorThresholds
//   proxy_waste_fraction = 0.05 # squid thrash-bytes fraction that throttles
//   throttle_share = 0.3       # dispatch share under squid/chirp overload
//   probe_share = 0.05         # probe trickle during an outage
//   restore_step = 0.25        # share added per clean tick while restoring
//
//   [trace]
//   file = run-trace.jsonl     # where the structured trace goes
//   format = jsonl             # or chrome (Perfetto-loadable)
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "lobsim/campaign.hpp"
#include "lobsim/spec_config.hpp"
#include "util/args.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace lobster;

int main(int argc, char** argv) {
  std::string scenario;
  std::size_t n_seeds = 1;
  std::size_t jobs = 1;
  std::optional<lobsim::AvailabilityConfig> availability_flag;
  std::optional<bool> advisor_flag;
  std::optional<std::string> trace_flag;
  std::optional<util::TraceFormat> format_flag;
  util::Args args(argc, argv,
                  "<scenario.ini> [--seeds N] [--jobs M] "
                  "[--availability SPEC] [--advisor on|off] [--trace PATH] "
                  "[--trace-format jsonl|chrome]");
  while (args.next()) {
    try {
      if (args.is("--seeds")) {
        n_seeds = static_cast<std::size_t>(args.integer(1));
      } else if (args.is("--jobs")) {
        jobs = static_cast<std::size_t>(args.integer(0));
      } else if (args.is("--availability")) {
        availability_flag = lobsim::parse_availability_spec(args.text());
      } else if (args.is("--advisor")) {
        const std::string value = args.text();
        if (value != "on" && value != "off")
          args.usage("--advisor takes on|off, got '" + value + "'");
        advisor_flag = value == "on";
      } else if (args.is("--trace")) {
        trace_flag = args.text();
      } else if (args.is("--trace-format")) {
        format_flag = util::parse_trace_format(args.text());
      } else if (scenario.empty() && args.positional()) {
        scenario = args.token();
      } else {
        args.usage();
      }
    } catch (const std::exception& e) {
      args.usage(e.what());
    }
  }
  if (scenario.empty()) args.usage("no scenario file given");

  // The scenario first, then the flags on top of it (what-if knobs; the
  // CLI wins).  --trace-format alone applies to the INI-configured file.
  lobsim::RunSpec spec;
  std::string trace_path;
  util::TraceFormat trace_format = util::TraceFormat::Jsonl;
  try {
    const util::Config cfg = util::Config::load(scenario);
    spec = lobsim::spec_from_config(cfg);
    trace_path = cfg.get_string("trace", "file", "");
    trace_format =
        util::parse_trace_format(cfg.get_string("trace", "format", "jsonl"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (availability_flag) spec.cluster.availability = *availability_flag;
  if (advisor_flag) spec.advisor.enabled = *advisor_flag;
  if (trace_flag) trace_path = *trace_flag;
  if (format_flag) trace_format = *format_flag;
  const auto& cluster = spec.cluster;
  const auto& workload = spec.workload;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(spec.seed + i);

  std::printf("simulating %zu cores (%s availability), %llu tasklets "
              "(%s each), %zu seed%s",
              cluster.target_cores,
              cluster.evictions ? lobsim::to_string(cluster.availability.kind)
                                : "none",
              static_cast<unsigned long long>(workload.num_tasklets),
              util::format_duration(workload.tasklet_cpu_mean).c_str(),
              seeds.size(), seeds.size() == 1 ? "" : "s");
  if (seeds.size() > 1) std::printf(" x %zu jobs", jobs);
  std::puts("...");

  lobsim::Campaign campaign(jobs);
  campaign.keep_metrics(true);  // the report wants the first run's monitor
  if (!trace_path.empty()) {
    if (seeds.size() == 1) {
      // One run: honour the path exactly.
      spec.trace_path = trace_path;
      spec.trace_format = trace_format;
      std::printf("tracing to %s (%s)\n", trace_path.c_str(),
                  util::to_string(trace_format));
    } else {
      // A sweep: strip the extension (if the conventional one) and write
      // one trace per run under that prefix.
      std::string prefix = trace_path;
      const std::string ext = util::trace_extension(trace_format);
      if (prefix.size() > ext.size() &&
          prefix.compare(prefix.size() - ext.size(), ext.size(), ext) == 0)
        prefix.resize(prefix.size() - ext.size());
      campaign.trace_to(prefix, trace_format);
      std::printf("tracing each run to %s-run<I>-seed<S>%s (%s)\n",
                  prefix.c_str(), ext.c_str(), util::to_string(trace_format));
    }
  }
  campaign.add_seed_sweep(spec, seeds);
  campaign.run();

  const auto& first = campaign.results().front();
  if (!first.ok()) {
    std::fprintf(stderr, "error: %s\n", first.error.c_str());
    return 1;
  }
  const auto& m = *first.metrics;
  const auto b = m.monitor.breakdown();
  const double total = b.total();

  if (!m.completed)
    std::printf("WARNING: INCOMPLETE at time cap (%s) — %llu tasklet%s still "
                "unprocessed; times below are lower bounds\n",
                util::format_duration(spec.time_cap).c_str(),
                static_cast<unsigned long long>(workload.num_tasklets -
                                                m.tasklets_processed),
                workload.num_tasklets - m.tasklets_processed == 1 ? "" : "s");

  util::Table table({"result", "value"});
  table.row({"makespan", m.completed
                             ? util::format_duration(m.makespan)
                             : "INCOMPLETE (>" +
                                   util::format_duration(spec.time_cap) + ")"});
  table.row({"peak concurrent tasks",
             util::Table::integer(static_cast<long long>(m.peak_running))});
  table.row({"tasklets processed",
             util::Table::integer(static_cast<long long>(m.tasklets_processed))});
  table.row({"tasks evicted / failed",
             util::Table::integer(static_cast<long long>(m.tasks_evicted)) +
                 " / " +
                 util::Table::integer(static_cast<long long>(m.tasks_failed))});
  table.row({"WAN streamed", util::format_bytes(m.bytes_streamed)});
  table.row({"staged out", util::format_bytes(m.bytes_staged_out)});
  table.row({"merged files", util::Table::integer(static_cast<long long>(
                                 m.merge_tasks_completed))});
  if (total > 0.0) {
    table.row({"CPU fraction", util::Table::num(100.0 * b.cpu / total, 1) + " %"});
    table.row({"I/O fraction", util::Table::num(100.0 * b.io / total, 1) + " %"});
    table.row({"failed fraction",
               util::Table::num(100.0 * b.failed / total, 1) + " %"});
  }
  std::fputs(table.str().c_str(), stdout);

  if (seeds.size() > 1) {
    std::printf("\nacross %zu seeds (seed %llu..%llu):\n", seeds.size(),
                static_cast<unsigned long long>(seeds.front()),
                static_cast<unsigned long long>(seeds.back()));
    const auto aggregates = campaign.aggregate();
    const auto& agg = aggregates.front();
    util::Table sweep({"metric", "mean", "stddev", "min", "max"});
    auto stat_row = [&sweep](const char* name, const util::RunningStats& s,
                             bool duration) {
      auto fmt = [duration](double v) {
        return duration ? util::format_duration(v) : util::Table::num(v, 1);
      };
      sweep.row({name, fmt(s.mean()), fmt(s.stddev()), fmt(s.min()),
                 fmt(s.max())});
    };
    stat_row("makespan", agg.makespan, true);
    stat_row("tasks evicted", agg.tasks_evicted, false);
    stat_row("tasks failed", agg.tasks_failed, false);
    stat_row("merged files", agg.merge_tasks, false);
    stat_row("peak running", agg.peak_running, false);
    std::fputs(sweep.str().c_str(), stdout);
    if (agg.incomplete > 0)
      std::printf("  (%llu of %llu runs INCOMPLETE at the %s time cap; "
                  "makespan rows are lower bounds)\n",
                  static_cast<unsigned long long>(agg.incomplete),
                  static_cast<unsigned long long>(agg.runs),
                  util::format_duration(spec.time_cap).c_str());
    if (agg.errors > 0)
      std::printf("  (%llu run%s failed)\n",
                  static_cast<unsigned long long>(agg.errors),
                  agg.errors == 1 ? "" : "s");
  }

  std::puts("\ndiagnosis:");
  const auto diags = m.monitor.diagnose();
  if (diags.empty()) std::puts("  no bottlenecks detected");
  for (const auto& d : diags)
    std::printf("  [%.2f] %s\n         -> %s\n", d.severity, d.symptom.c_str(),
                d.advice.c_str());
  return 0;
}
