// fig15_global_pool_live — the fig13 Global Pool scenario run *live*
// through the DES kernel instead of the closed-form fluid model.
//
// fig13 argues the §7 comparison with simulate_global_pool: a max-min fair
// fluid allocation of 110k dedicated cores over the collaboration's
// campaigns.  That model is exact but bypasses the event engine entirely.
// This bench dispatches the same population — 400 backlogged analyses with
// pareto-tailed volumes plus our 200k-core-hour analyst — as millions of
// discrete one-hour tasklets onto 110k discrete core slots through a
// fair-share round-robin scheduler, every dispatch and completion a real
// kernel event.  It then cross-checks the live run against the closed
// form: per-campaign turnaround for our analyst and aggregate goodput must
// agree within 5%.  Only the calendar-queue kernel makes this run casual —
// the old binary-heap queue put it at minutes of wall time.
//
// Usage: fig15_global_pool_live [--cores N] [--users N] [--tasklet-seconds S]
//   --cores 2200 --users 40   is the scaled-down CI smoke configuration.
//
// Writes BENCH_fig15_global_pool_live.json (kernel events/s over the live
// run) for the perf-gate trajectory.  Exit code 1 when the live-vs-model
// deviation exceeds 5%.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "lobsim/global_pool.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {

struct Options {
  double cores = 110000.0;
  std::size_t users = 400;
  double tasklet_seconds = 3600.0;
};

double pct_dev(double live, double model) {
  return model > 0.0 ? 100.0 * (live - model) / model : 0.0;
}

int run(const Options& opt) {
  std::puts("=== Global Pool, live DES run vs closed-form fluid model ===\n");

  // The same population fig13 builds: `users` backlogged analyses with
  // heavy-tailed volumes (seed 2015), plus our deadline-driven analyst.
  // The volume scales with the pool so the smoke configuration keeps the
  // same contention shape.
  const double scale = opt.cores / 110000.0;
  util::Rng rng(2015);
  std::vector<lobsim::PoolUser> users;
  for (std::size_t u = 0; u < opt.users; ++u) {
    lobsim::PoolUser user;
    user.name = "analyst-" + std::to_string(u);
    user.submit_time = 0.0;
    user.core_seconds = rng.pareto(1.3, util::hours(2000) * scale);
    user.max_parallelism = rng.uniform(500.0, 4000.0) * scale;
    users.push_back(user);
  }
  lobsim::PoolUser ours;
  ours.name = "our-analyst";
  ours.submit_time = 0.0;
  ours.core_seconds = util::hours(200000) * scale;
  ours.max_parallelism = 10000.0 * scale;
  users.push_back(ours);

  double total_core_seconds = 0.0;
  for (const auto& u : users) total_core_seconds += u.core_seconds;

  // Closed form first (cheap), then the live run, timed.
  const auto model = lobsim::simulate_global_pool(opt.cores, users);
  double model_makespan = 0.0;
  for (const auto& o : model)
    model_makespan = std::max(model_makespan, o.finish_time);
  const double model_goodput = total_core_seconds / model_makespan;

  benchjson::Stopwatch sw;
  sw.start();
  const auto live =
      lobsim::simulate_global_pool_live(opt.cores, users, opt.tasklet_seconds);
  const double wall = sw.stop();
  benchjson::write_snapshot(
      "fig15_global_pool_live",
      {static_cast<double>(live.events_executed), wall});

  std::printf(
      "\n%.0f cores, %zu campaigns, %.3g core-hours of work\n"
      "live run: %llu tasklets, %llu kernel events, %.2fs wall\n\n",
      opt.cores, users.size(), total_core_seconds / 3600.0,
      static_cast<unsigned long long>(live.tasklets_dispatched),
      static_cast<unsigned long long>(live.events_executed), wall);

  const auto& ours_live = live.outcomes.back();
  const auto& ours_model = model.back();
  const double dev_ours =
      pct_dev(ours_live.turnaround(), ours_model.turnaround());
  const double dev_makespan = pct_dev(live.makespan, model_makespan);
  const double dev_goodput = pct_dev(live.aggregate_goodput, model_goodput);

  util::Table table({"quantity", "closed form", "live DES", "deviation"});
  table.row({"our-analyst turnaround",
             util::format_duration(ours_model.turnaround()),
             util::format_duration(ours_live.turnaround()),
             (dev_ours < 0 ? "" : "+") + std::to_string(dev_ours).substr(0, 5) +
                 "%"});
  table.row({"pool makespan", util::format_duration(model_makespan),
             util::format_duration(live.makespan),
             (dev_makespan < 0 ? "" : "+") +
                 std::to_string(dev_makespan).substr(0, 5) + "%"});
  char buf_model[32], buf_live[32], buf_dev[32];
  std::snprintf(buf_model, sizeof buf_model, "%.0f cores", model_goodput);
  std::snprintf(buf_live, sizeof buf_live, "%.0f cores",
                live.aggregate_goodput);
  std::snprintf(buf_dev, sizeof buf_dev, "%+.2f%%", dev_goodput);
  table.row({"aggregate goodput", buf_model, buf_live, buf_dev});
  std::fputs(table.str().c_str(), stdout);

  const bool ok = std::abs(dev_goodput) <= 5.0;
  std::printf("\nlive-vs-model aggregate goodput deviation: %+.2f%% -> %s\n",
              dev_goodput, ok ? "PASS (within 5%)" : "FAIL (above 5%)");
  std::puts("\nPaper-shape check (SS7): the discrete fair-share pool");
  std::puts("reproduces the fluid max-min model at one-hour tasklet");
  std::puts("granularity; the calendar-queue kernel sustains the 110k-core");
  std::puts("live run in seconds of wall time.");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  util::Args args(argc, argv, "[--cores N] [--users N] [--tasklet-seconds S]");
  while (args.next()) {
    if (args.is("--cores"))
      opt.cores = args.positive();
    else if (args.is("--users"))
      opt.users = static_cast<std::size_t>(args.integer(0));
    else if (args.is("--tasklet-seconds"))
      opt.tasklet_seconds = args.positive();
    else
      args.usage();
  }
  try {
    return run(opt);
  } catch (const std::invalid_argument& e) {
    // A pool the model cannot run (e.g. under one core).
    args.usage(e.what());
  }
}
