// bench_flags.hpp — what several figure benches share: the campaign and
// timeline flags (read through util::Args, like every bench's flags) and
// the fig10/fig11 advisor-gate driver.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "lobsim/campaign.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace lobster::benchflags {

/// The campaign benches' flags: `--seeds N` expands to
/// base_seed..base_seed+N-1, `--jobs M` sets the pool width (0 = hardware
/// concurrency).
struct CampaignFlags {
  std::vector<std::uint64_t> seeds;
  std::size_t jobs = 1;
};

inline CampaignFlags campaign_flags(int argc, char** argv,
                                    std::uint64_t base_seed,
                                    std::size_t default_seeds = 1) {
  std::size_t n_seeds = default_seeds;
  CampaignFlags f;
  util::Args args(argc, argv, "[--seeds N] [--jobs M]");
  while (args.next()) {
    if (args.is("--seeds"))
      n_seeds = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--jobs"))
      f.jobs = static_cast<std::size_t>(args.integer(0));
    else
      args.usage();
  }
  for (std::size_t i = 0; i < n_seeds; ++i) f.seeds.push_back(base_seed + i);
  return f;
}

/// The flags fig10 and fig11 share.  cores/tasklets 0 = the scenario's own.
struct TimelineFlags {
  bool advisor_gate = false;
  std::size_t cores = 0;
  std::uint64_t tasklets = 0;
  std::string trace_prefix;
};

inline TimelineFlags parse_timeline_flags(int argc, char** argv) {
  TimelineFlags f;
  util::Args args(argc, argv,
                  "[--advisor-gate] [--cores N] [--tasklets N] "
                  "[--trace-prefix P]");
  while (args.next()) {
    if (args.is("--advisor-gate"))
      f.advisor_gate = true;
    else if (args.is("--cores"))
      f.cores = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--tasklets"))
      f.tasklets = static_cast<std::uint64_t>(args.integer(1));
    else if (args.is("--trace-prefix"))
      f.trace_prefix = args.text();
    else
      args.usage();
  }
  return f;
}

/// The fig10/fig11 --advisor-gate run: `off` and `on` through one
/// two-wide Campaign, a side-by-side table, then the gate.  Returns 0 only
/// when both runs complete and advisor-on goodput is strictly higher.
inline int run_advisor_gate(const lobsim::RunSpec& off,
                            const lobsim::RunSpec& on) {
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
  table.row({"goodput (tasklets/h)", util::Table::num(a.goodput(), 1),
             util::Table::num(b.goodput(), 1)});
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
  if (!(b.goodput() > a.goodput())) {
    std::printf("\nGATE FAIL: advisor-on goodput %.1f <= advisor-off %.1f.\n",
                b.goodput(), a.goodput());
    return 1;
  }
  std::printf("\nGATE PASS: advisor-on goodput %.1f > advisor-off %.1f "
              "(makespan %s vs %s).\n",
              b.goodput(), a.goodput(),
              util::format_duration(b.makespan).c_str(),
              util::format_duration(a.makespan).c_str());
  return 0;
}

}  // namespace lobster::benchflags
