// fig13_global_pool_baseline — the baseline comparison of paper §7
// (extension experiment; the paper argues it qualitatively).
//
// "The Global Pool ... has achieved a record of just over 110k
// simultaneously running jobs across all CMS WLCG T1 through T3 resources.
// ... Lobster empowers a single user to access a scale of opportunistic
// resources approximately 10% the size of the global pool without
// intervention from systems administrators."
//
// We put a deadline-driven analyst (a 200k-core-hour campaign, e.g. a
// conference rush) into the shared 110k-core Global Pool alongside the rest
// of the collaboration, and compare against the same campaign run through
// Lobster on a 10k-core opportunistic burst at the Figure 3 efficiency
// ceiling.
#include <cstdio>
#include <vector>

#include "lobsim/global_pool.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;
  util::Args args(argc, argv, "");
  if (args.next()) args.usage();

  std::puts("=== Baseline: centralized Global Pool vs per-user Lobster ===\n");

  // The collaboration's background load: several hundred analyses already
  // queued — the pool runs with a standing backlog (paper §2: CMS "is
  // limited to approximately half" of its data rate because WLCG resources
  // are insufficient; demand permanently exceeds capacity).
  util::Rng rng(2015);
  std::vector<lobsim::PoolUser> users;
  for (int u = 0; u < 400; ++u) {
    lobsim::PoolUser user;
    user.name = "analyst-" + std::to_string(u);
    user.submit_time = 0.0;  // backlogged when we arrive
    user.core_seconds = rng.pareto(1.3, util::hours(2000));  // heavy tail
    user.max_parallelism = rng.uniform(500.0, 4000.0);
    users.push_back(user);
  }
  // Our analyst: 200k core-hours, wants up to 10k-way parallelism, submits
  // at t = 0.
  lobsim::PoolUser ours;
  ours.name = "our-analyst";
  ours.submit_time = 0.0;
  ours.core_seconds = util::hours(200000);
  ours.max_parallelism = 10000.0;
  users.push_back(ours);

  const auto outcomes = lobsim::simulate_global_pool(110000.0, users);
  const auto& mine = outcomes.back();

  // Lobster: a 10k-core opportunistic burst at the ~65% efficiency the
  // Figure 3 model allows for one-hour tasks under observed evictions.
  const double lobster_done =
      lobsim::lobster_burst_completion(ours.core_seconds, 10000.0, 0.65);

  // A smaller-footprint comparison: the pool with only light background.
  std::vector<lobsim::PoolUser> light(users.begin(), users.begin() + 40);
  light.push_back(ours);
  const auto idle_outcomes = lobsim::simulate_global_pool(110000.0, light);

  util::Table table({"scheduling path", "campaign completion", "notes"});
  table.row({"Global Pool, busy day (400 analyses)",
             util::format_duration(mine.turnaround()),
             "fair share across the collaboration"});
  table.row({"Global Pool, quiet day (40 analyses)",
             util::format_duration(idle_outcomes.back().turnaround()),
             "more headroom, same central queue"});
  table.row({"Lobster, 10k opportunistic cores",
             util::format_duration(lobster_done),
             "single-user burst at 65% efficiency"});
  std::fputs(table.str().c_str(), stdout);

  std::printf(
      "\nspeedup of per-user Lobster over the busy shared pool: %.1fx\n",
      mine.turnaround() / lobster_done);
  std::puts("\nPaper-shape check (SS7): central scheduling is efficient in");
  std::puts("aggregate but cannot dedicate resources to one user; Lobster");
  std::puts("gives a single user ~10% of the Global Pool's scale on demand,");
  std::puts("which wins whenever the pool is contended.");
  return 0;
}
