// fig03_task_size_efficiency — reproduces Figure 3: "Efficiency, calculated
// as the ratio of effective processing time to total time, as a function of
// the average task length for the simulated processing of 100,000 tasklets
// and assuming a constant probability of eviction (dotted), a probability
// derived from observation (dashed), or no eviction (solid)."
//
// All parameters are the paper's: 100k tasklets, 8000 workers, per-worker
// overhead 5 min, per-task overhead 20 min, tasklet times N(10, 5) min.
// Expected shape: all three curves start low (task shorter than the
// overheads), the no-eviction curve rises asymptotically toward 1, and both
// eviction curves peak around 70% near one-hour tasks and then decay.
#include <cstdio>
#include <vector>

#include "core/task_size_model.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lobster;
  util::Args args(argc, argv, "");
  if (args.next()) args.usage();

  std::puts("=== Figure 3: Simulated Efficiency by Task Length ===");
  std::puts("100,000 tasklets, 8,000 workers, worker OH 5 min, task OH 20 min,");
  std::puts("tasklet ~ N(10 min, 5 min).  Three eviction scenarios.\n");

  core::TaskSizeModelParams params;  // paper defaults
  const core::NoEviction none;
  const core::ConstantEviction constant(0.1);
  const auto log = core::synthesize_availability_log(
      50000, util::Rng(2015).stream("fig3"), 0.8, 4.0);
  const core::EmpiricalEviction observed{util::EmpiricalDistribution(log)};

  const std::vector<double> hours{0.25, 0.5, 1.0, 1.5, 2.0, 3.0,
                                  4.0,  5.0, 6.0, 8.0, 10.0};
  const auto sweep_none = core::sweep_task_sizes(params, none, hours);
  const auto sweep_const = core::sweep_task_sizes(params, constant, hours);
  const auto sweep_obs = core::sweep_task_sizes(params, observed, hours);

  util::Table table({"task length (h)", "no eviction", "constant (0.1/h)",
                     "observed", "profile (observed)"});
  for (std::size_t i = 0; i < hours.size(); ++i) {
    table.row({util::Table::num(hours[i], 2),
               util::Table::num(sweep_none[i].efficiency, 3),
               util::Table::num(sweep_const[i].efficiency, 3),
               util::Table::num(sweep_obs[i].efficiency, 3),
               util::bar(sweep_obs[i].efficiency, 1.0, 40)});
  }
  std::fputs(table.str().c_str(), stdout);

  const double opt_const = core::optimal_task_hours(sweep_const);
  const double opt_obs = core::optimal_task_hours(sweep_obs);
  double best_const = 0.0, best_obs = 0.0;
  for (const auto& r : sweep_const)
    best_const = std::max(best_const, r.efficiency);
  for (const auto& r : sweep_obs) best_obs = std::max(best_obs, r.efficiency);

  std::puts("\nPaper-shape check (paper: both eviction models peak ~70% at");
  std::puts("~1 h; no-eviction curve approaches 1 asymptotically):");
  std::printf("  constant model: peak %.3f at %.2f h\n", best_const, opt_const);
  std::printf("  observed model: peak %.3f at %.2f h\n", best_obs, opt_obs);
  std::printf("  no eviction at 10 h: %.3f\n", sweep_none.back().efficiency);
  return 0;
}
