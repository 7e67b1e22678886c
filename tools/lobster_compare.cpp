// lobster_compare — side-by-side run comparison and trace diff (the
// operator plane's "where did the time go" tool).
//
// The paper's operators tuned the facility by running a configuration
// twice and comparing dashboards; this tool does the comparison
// numerically.  Each positional argument is one run, given either as
//
//   *.jsonl  a structured trace written by `lobster_sim --trace` or
//            Engine::enable_tracing — validated, then replayed into
//            TaskRecords (no simulation executed), or
//   *.ini    a scenario file (the lobster_sim grammar, shared via
//            lobsim::spec_from_config) — all scenarios execute through ONE
//            Campaign, so `--jobs M` runs them concurrently and results
//            stay in submission order.
//
// Modes (combinable):
//   (default)            side-by-side metric table, runs as columns
//   --diff               trace-diff of exactly two runs: per-bucket wall
//                        seconds (7 wrapper segments + "failed" + "lost",
//                        the Figure 8 accounting) diffed between the runs,
//                        movers ranked by |delta| with share-of-movement
//   --expect-mover NAME  exit 1 unless the top --diff mover is NAME (CI
//                        gates assert *why* a mitigation won, not just
//                        that it won)
//   --json / --csv       machine-readable output on stdout (JSON is plain
//                        RFC 8259, `python3 -m json.tool` clean)
//   --trace-dir DIR      run mode: write each scenario's trace into DIR
//                        and replay it for bucket attribution (--diff on
//                        scenarios requires this — the buckets live in the
//                        trace, not in the scalar RunStats)
//   --seeds N / --jobs M seed sweep / worker threads for run mode; the
//                        table and diff use each scenario's first seed
//
// Labels are input basenames (extension stripped), so
// `lobster_compare off.jsonl on.jsonl --diff` reads as "off -> on".
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/trace_diff.hpp"
#include "core/trace_replay.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/spec_config.hpp"
#include "util/args.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {

struct Options {
  std::vector<std::string> inputs;
  bool diff = false;
  bool json = false;
  bool csv = false;
  std::string expect_mover;
  std::string trace_dir;
  std::size_t seeds = 1;
  std::size_t jobs = 1;
};

/// One run loaded onto the attribution plane.  Scenario runs without a
/// --trace-dir carry headline metrics only (`has_records` false).
struct LoadedRun {
  std::string label;
  core::RunAttribution attr;
  std::vector<core::TaskRecord> records;
  bool has_records = false;
};

std::string basename_no_ext(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.resize(dot);
  return base;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Trace mode: validate + replay an on-disk trace into the attribution
/// plane.  Throws on unreadable or malformed traces.
LoadedRun load_trace(const std::string& path, const std::string& label) {
  const std::vector<util::TraceEvent> events = util::read_trace_jsonl(path);
  const std::string problem = util::validate_trace(events);
  if (!problem.empty())
    throw std::runtime_error("invalid trace " + path + ": " + problem);
  core::TraceReplay replay = core::replay_trace(events);
  LoadedRun run;
  run.label = label;
  run.records = std::move(replay.records);
  run.has_records = true;
  run.attr = core::attribute_records(run.records, label);
  return run;
}

/// Run mode fallback when no trace hit disk: headline metrics from the
/// scalar RunStats, buckets left empty (the table skips them).
LoadedRun stats_only_run(const std::string& label,
                         const lobsim::RunStats& stats) {
  LoadedRun run;
  run.label = label;
  run.attr.label = label;
  run.attr.tasks = stats.tasks_completed + stats.tasks_failed +
                   stats.tasks_evicted + stats.merge_tasks_completed;
  run.attr.failures = stats.tasks_failed + stats.tasks_evicted;
  run.attr.tasklets_processed = stats.tasklets_processed;
  run.attr.makespan = stats.makespan;
  run.attr.goodput = stats.goodput();
  return run;
}

// ---- output: human tables ---------------------------------------------------

void print_side_by_side(const std::vector<LoadedRun>& runs) {
  std::vector<std::string> headers = {"metric"};
  for (const auto& r : runs) headers.push_back(r.label);
  util::Table table(headers);
  auto row = [&](const char* metric, auto&& cell) {
    std::vector<std::string> cells = {metric};
    for (const auto& r : runs) cells.push_back(cell(r));
    table.row(cells);
  };
  row("makespan", [](const LoadedRun& r) {
    return util::format_duration(r.attr.makespan);
  });
  row("goodput (tasklets/h)", [](const LoadedRun& r) {
    return util::Table::num(r.attr.goodput, 1);
  });
  row("tasks", [](const LoadedRun& r) {
    return util::Table::integer(static_cast<long long>(r.attr.tasks));
  });
  row("tasks failed+evicted", [](const LoadedRun& r) {
    return util::Table::integer(static_cast<long long>(r.attr.failures));
  });
  row("tasklets processed", [](const LoadedRun& r) {
    return util::Table::integer(
        static_cast<long long>(r.attr.tasklets_processed));
  });
  bool any_buckets = false;
  for (const auto& r : runs) any_buckets |= r.has_records;
  if (any_buckets) {
    for (std::size_t bkt = 0; bkt < core::kNumDiffBuckets; ++bkt) {
      const std::string name =
          std::string("wall: ") + core::diff_bucket_name(bkt);
      row(name.c_str(), [bkt](const LoadedRun& r) {
        return r.has_records
                   ? util::format_duration(r.attr.bucket_seconds[bkt])
                   : std::string("-");
      });
    }
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_diff(const core::TraceDiff& diff) {
  std::printf("\ntrace diff: %s -> %s\n", diff.a.label.c_str(),
              diff.b.label.c_str());
  std::printf("  makespan %s -> %s (%+.1f s)\n",
              util::format_duration(diff.a.makespan).c_str(),
              util::format_duration(diff.b.makespan).c_str(),
              diff.makespan_delta);
  std::printf("  goodput  %.1f -> %.1f tasklets/h (%+.1f)\n", diff.a.goodput,
              diff.b.goodput, diff.goodput_delta);
  std::puts("\nmovers (wall seconds per bucket, |delta| descending):");
  util::Table movers({"bucket", "before", "after", "delta", "share"});
  for (const auto& m : diff.movers) {
    const std::string magnitude = util::format_duration(std::fabs(m.delta));
    movers.row({m.bucket, util::format_duration(m.before),
                util::format_duration(m.after),
                (m.delta < 0 ? "-" : "+") + magnitude,
                util::Table::num(100.0 * m.share, 1) + " %"});
  }
  std::fputs(movers.str().c_str(), stdout);
}

// ---- output: machine formats ------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const std::vector<LoadedRun>& runs,
                const core::TraceDiff* diff) {
  std::printf("{\n  \"runs\": [");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::printf("%s\n    {\"label\": \"%s\", \"tasks\": %llu, "
                "\"failures\": %llu, \"tasklets_processed\": %llu, "
                "\"makespan\": %s, \"goodput\": %s",
                i ? "," : "", json_escape(r.label).c_str(),
                static_cast<unsigned long long>(r.attr.tasks),
                static_cast<unsigned long long>(r.attr.failures),
                static_cast<unsigned long long>(r.attr.tasklets_processed),
                json_num(r.attr.makespan).c_str(),
                json_num(r.attr.goodput).c_str());
    if (r.has_records) {
      std::printf(", \"buckets\": {");
      for (std::size_t bkt = 0; bkt < core::kNumDiffBuckets; ++bkt)
        std::printf("%s\"%s\": %s", bkt ? ", " : "",
                    core::diff_bucket_name(bkt),
                    json_num(r.attr.bucket_seconds[bkt]).c_str());
      std::printf("}");
    }
    std::printf("}");
  }
  std::printf("\n  ]");
  if (diff) {
    std::printf(",\n  \"diff\": {\"from\": \"%s\", \"to\": \"%s\", "
                "\"makespan_delta\": %s, \"goodput_delta\": %s, "
                "\"movers\": [",
                json_escape(diff->a.label).c_str(),
                json_escape(diff->b.label).c_str(),
                json_num(diff->makespan_delta).c_str(),
                json_num(diff->goodput_delta).c_str());
    for (std::size_t i = 0; i < diff->movers.size(); ++i) {
      const auto& m = diff->movers[i];
      std::printf("%s\n    {\"bucket\": \"%s\", \"before\": %s, "
                  "\"after\": %s, \"delta\": %s, \"share\": %s}",
                  i ? "," : "", json_escape(m.bucket).c_str(),
                  json_num(m.before).c_str(), json_num(m.after).c_str(),
                  json_num(m.delta).c_str(), json_num(m.share).c_str());
    }
    std::printf("\n  ]}");
  }
  std::printf("\n}\n");
}

void print_csv(const std::vector<LoadedRun>& runs,
               const core::TraceDiff* diff) {
  std::printf("label,tasks,failures,tasklets_processed,makespan_s,"
              "goodput_per_h");
  for (std::size_t bkt = 0; bkt < core::kNumDiffBuckets; ++bkt)
    std::printf(",%s_s", core::diff_bucket_name(bkt));
  std::puts("");
  for (const auto& r : runs) {
    std::printf("%s,%llu,%llu,%llu,%.17g,%.17g", r.label.c_str(),
                static_cast<unsigned long long>(r.attr.tasks),
                static_cast<unsigned long long>(r.attr.failures),
                static_cast<unsigned long long>(r.attr.tasklets_processed),
                r.attr.makespan, r.attr.goodput);
    for (std::size_t bkt = 0; bkt < core::kNumDiffBuckets; ++bkt)
      std::printf(",%.17g", r.attr.bucket_seconds[bkt]);
    std::puts("");
  }
  if (diff) {
    std::puts("");
    std::puts("bucket,before_s,after_s,delta_s,share");
    for (const auto& m : diff->movers)
      std::printf("%s,%.17g,%.17g,%.17g,%.17g\n", m.bucket.c_str(), m.before,
                  m.after, m.delta, m.share);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  util::Args args(argc, argv,
                  "<run.jsonl|scenario.ini> [more runs...]\n"
                  "          [--diff] [--expect-mover NAME] [--json] [--csv]\n"
                  "          [--trace-dir DIR] [--seeds N] [--jobs M]");
  while (args.next()) {
    if (args.is("--diff"))
      opt.diff = true;
    else if (args.is("--json"))
      opt.json = true;
    else if (args.is("--csv"))
      opt.csv = true;
    else if (args.is("--expect-mover"))
      opt.expect_mover = args.text();
    else if (args.is("--trace-dir"))
      opt.trace_dir = args.text();
    else if (args.is("--seeds"))
      opt.seeds = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--jobs"))
      opt.jobs = static_cast<std::size_t>(args.integer(0));
    else if (args.positional())
      opt.inputs.push_back(args.token());
    else
      args.usage();
  }
  if (opt.inputs.size() < 2) args.usage("need at least two runs to compare");
  if (opt.diff && opt.inputs.size() != 2)
    args.usage("--diff compares exactly two runs (got " +
               std::to_string(opt.inputs.size()) + ")");
  if (!opt.expect_mover.empty() && !opt.diff)
    args.usage("--expect-mover requires --diff");
  if (opt.diff && opt.trace_dir.empty() &&
      (ends_with(opt.inputs[0], ".ini") || ends_with(opt.inputs[1], ".ini")))
    args.usage("--diff on a scenario needs --trace-dir DIR");

  std::vector<LoadedRun> runs;
  try {
    // Partition inputs: traces replay directly; scenarios queue into one
    // Campaign and execute together (order restored by submission index).
    runs.resize(opt.inputs.size());
    lobsim::Campaign campaign(opt.jobs);
    std::vector<std::size_t> scenario_slots;
    for (std::size_t i = 0; i < opt.inputs.size(); ++i) {
      const std::string& path = opt.inputs[i];
      const std::string label = basename_no_ext(path);
      if (ends_with(path, ".jsonl")) {
        runs[i] = load_trace(path, label);
        continue;
      }
      if (!ends_with(path, ".ini"))
        throw std::runtime_error("cannot tell what '" + path +
                                 "' is: expected *.jsonl (trace) or *.ini "
                                 "(scenario)");
      lobsim::RunSpec spec = lobsim::spec_from_config(util::Config::load(path));
      spec.label = label;
      if (!opt.trace_dir.empty()) {
        spec.trace_path = opt.trace_dir + "/" + label + ".jsonl";
        spec.trace_format = util::TraceFormat::Jsonl;
      }
      // Extra seeds sharpen the aggregate but the comparison plane uses
      // each scenario's first (base-seed) run for determinism.
      std::vector<std::uint64_t> seeds;
      for (std::size_t s = 0; s < opt.seeds; ++s)
        seeds.push_back(spec.seed + s);
      if (opt.seeds > 1) {
        // Only the first seed keeps the exact trace path; the rest would
        // overwrite it, so they run untraced.
        lobsim::RunSpec first = spec;
        campaign.add(std::move(first));
        for (std::size_t s = 1; s < seeds.size(); ++s) {
          lobsim::RunSpec rest = spec;
          rest.seed = seeds[s];
          rest.trace_path.clear();
          campaign.add(std::move(rest));
        }
      } else {
        campaign.add(spec);
      }
      scenario_slots.push_back(i);
    }
    if (!scenario_slots.empty()) {
      std::fprintf(stderr, "running %zu scenario%s (%zu seed%s, %zu job%s)\n",
                   scenario_slots.size(),
                   scenario_slots.size() == 1 ? "" : "s", opt.seeds,
                   opt.seeds == 1 ? "" : "s", campaign.jobs(),
                   campaign.jobs() == 1 ? "" : "s");
      const auto& results = campaign.run();
      // Submission order: per scenario, one base-seed run then opt.seeds-1
      // sweep runs; only the base-seed run feeds the comparison.
      const std::size_t per_scenario = opt.seeds;
      for (std::size_t k = 0; k < scenario_slots.size(); ++k) {
        const lobsim::RunResult& r = results[k * per_scenario];
        if (!r.ok())
          throw std::runtime_error("run '" + r.label + "' failed: " + r.error);
        const std::size_t slot = scenario_slots[k];
        const std::string label = basename_no_ext(opt.inputs[slot]);
        if (!opt.trace_dir.empty()) {
          runs[slot] =
              load_trace(opt.trace_dir + "/" + label + ".jsonl", label);
        } else {
          runs[slot] = stats_only_run(label, r.stats);
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  core::TraceDiff diff;
  const core::TraceDiff* diff_ptr = nullptr;
  if (opt.diff) {
    diff = core::diff_task_records(runs[0].records, runs[1].records,
                                   runs[0].label, runs[1].label);
    diff_ptr = &diff;
  }

  if (opt.json) {
    print_json(runs, diff_ptr);
  } else if (opt.csv) {
    print_csv(runs, diff_ptr);
  } else {
    print_side_by_side(runs);
    if (diff_ptr) print_diff(*diff_ptr);
  }

  if (!opt.expect_mover.empty()) {
    const std::string& top = diff.movers.front().bucket;
    if (top != opt.expect_mover) {
      std::fprintf(stderr,
                   "FAIL: top mover is '%s' (expected '%s') — the delta is "
                   "not attributed where claimed\n",
                   top.c_str(), opt.expect_mover.c_str());
      return 1;
    }
    std::fprintf(stderr, "top mover '%s' matches expectation\n", top.c_str());
  }
  return 0;
}
