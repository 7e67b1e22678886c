// fig03_dispatch_policies — the Figure 3 "optimal task length" trade-off,
// policy-driven.  Figure 3 fixes a *static* optimum (~1 h of work per task)
// by Monte Carlo; this companion sweeps the live DispatchPolicy zoo — fifo
// (the static production default), tail-shrink, site-aware and the §4.1
// lifetime-aware sizer ("jobs are created on demand ... sized to the
// expected lifetime of the worker") — across three availability climates
// and reports the same trade-off from the running engine: eviction counts,
// tasklets retried (the work an eviction throws away) and makespan.
//
// The lifetime policy is the interesting row: it queries the site's
// AvailabilityModel at every pull, so under the adversarial-burst climate
// task sizes shrink as the next preemption wave approaches and the retry
// bill drops relative to fifo's fixed-size tasks.
//
// Usage: fig03_dispatch_policies [--seeds N] [--jobs M]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "lobsim/campaign.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {
lobsim::RunSpec base_spec() {
  lobsim::RunSpec spec;
  // The fig02 availability-sweep workload: a 512-core opportunistic slice
  // with ~1 h fixed tasks, big enough for the policies to separate.
  spec.cluster.target_cores = 512;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 900.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 6000;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 300.0;
  spec.workload.tasklet_input_bytes = 100e6;
  spec.workload.tasklet_output_bytes = 15e6;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.workload.merge_policy.target_bytes = 3.5e9;
  spec.time_cap = 30.0 * 86400.0;
  return spec;
}

struct Climate {
  const char* name;
  lobsim::AvailabilityConfig config;
};

std::vector<Climate> climates() {
  std::vector<Climate> out;
  Climate weibull{"weibull", {}};
  out.push_back(weibull);

  Climate diurnal{"diurnal", {}};
  diurnal.config.kind = lobsim::AvailabilityKind::Diurnal;
  diurnal.config.diurnal_amplitude = 0.7;
  diurnal.config.diurnal_peak_hour = 14.0;
  out.push_back(diurnal);

  // The stress case: a 2-hourly preemption wave claiming 70 % of the pool.
  Climate burst{"adversarial-burst", {}};
  burst.config.kind = lobsim::AvailabilityKind::AdversarialBurst;
  burst.config.burst_period_hours = 2.0;
  burst.config.burst_fraction = 0.7;
  out.push_back(burst);
  return out;
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchflags::campaign_flags(argc, argv, 2015, 3);

  std::puts("=== Figure 3 companion: dispatch-policy x climate sweep ===");
  std::printf("512 opportunistic cores, 1000 six-tasklet tasks, %zu seed%s"
              " x %zu jobs\n\n",
              opts.seeds.size(), opts.seeds.size() == 1 ? "" : "s", opts.jobs);

  const std::vector<lobsim::DispatchMode> policies = {
      lobsim::DispatchMode::Fifo, lobsim::DispatchMode::TailShrink,
      lobsim::DispatchMode::SiteAware, lobsim::DispatchMode::Lifetime};

  std::vector<lobsim::RunSpec> specs;
  for (const auto& climate : climates()) {
    for (const auto mode : policies) {
      lobsim::RunSpec spec = base_spec();
      spec.cluster.availability = climate.config;
      spec.workload.dispatch = mode;
      spec.label = std::string(climate.name) + "/" + lobsim::to_string(mode);
      specs.push_back(std::move(spec));
    }
  }

  lobsim::Campaign campaign(opts.jobs);
  campaign.add_grid(specs, opts.seeds);
  campaign.run();

  util::Table table({"climate", "policy", "evictions", "retried tasklets",
                     "goodput", "makespan"});
  for (const auto& agg : campaign.aggregate()) {
    const std::size_t slash = agg.label.find('/');
    std::string makespan = util::format_duration(agg.makespan.mean());
    if (agg.incomplete > 0) makespan = "INCOMPLETE (>" + makespan + ")";
    // Goodput = CPU over total worker-occupied time, averaged over the
    // cell's runs.
    util::RunningStats goodput;
    for (const auto& r : campaign.results()) {
      if (r.label != agg.label || !r.ok()) continue;
      const double total = r.stats.breakdown.total();
      goodput.add(total > 0.0 ? r.stats.breakdown.cpu / total : 0.0);
    }
    table.row({agg.label.substr(0, slash), agg.label.substr(slash + 1),
               util::Table::num(agg.tasks_evicted.mean(), 1),
               util::Table::num(agg.tasklets_retried.mean(), 1),
               util::Table::num(100.0 * goodput.mean(), 1) + " %", makespan});
    if (agg.errors > 0)
      std::fprintf(stderr, "%llu run(s) of %s failed\n",
                   static_cast<unsigned long long>(agg.errors),
                   agg.label.c_str());
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nReading: fifo pays the full fixed-size retry bill everywhere;");
  std::puts("tail-shrink only trims the drain phase; site-aware halves every");
  std::puts("task under an evicting climate.  The lifetime policy sizes each");
  std::puts("task to the expected remaining worker lifetime: under the");
  std::puts("2-hourly preemption waves tasks pulled close to a burst carry");
  std::puts("little work to lose, so it retries the fewest tasklets of any");
  std::puts("policy at the best goodput; under the calm weibull climate the");
  std::puts("sizing lands on the Figure 3 static optimum (~1 h) and matches");
  std::puts("tail-shrink.  The diurnal row is the cautionary tale: at night");
  std::puts("the *mean* lifetime is long, so the policy overcommits against");
  std::puts("a decreasing-hazard climate whose mean far exceeds its median");
  std::puts("and gives some of fifo's margin back.");
  return 0;
}
