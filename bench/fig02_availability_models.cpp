// fig02_availability_models — companion sweep to Figure 2: the same
// workflow under the four availability climates (weibull / trace / diurnal
// / adversarial-burst) behind the SiteManager.
//
// Figure 2 measures *one* empirical climate; the paper's argument — task
// sizing, retry discipline, merge-group loss — depends on what the climate
// looks like, so this bench runs a fixed mid-size workflow through every
// model and prints the side-by-side damage report: eviction counts,
// goodput fraction (CPU over total worker-occupied time), tasklet retry
// totals and makespan.  The trace model replays a synthesized availability
// log shared across all runs, exercising the same code path a real
// HTCondor-log CSV would.
//
// Usage: fig02_availability_models [--seeds N] [--jobs M]
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_flags.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace lobster;

namespace {
lobsim::RunSpec base_spec() {
  lobsim::RunSpec spec;
  // A 512-core opportunistic slice with ~1 h tasks: big enough that the
  // climates separate, small enough to sweep over seeds quickly.
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
}  // namespace

int main(int argc, char** argv) {
  const auto opts = benchflags::campaign_flags(argc, argv, 2015, 3);

  std::puts("=== Figure 2 companion: availability-model sweep ===");
  std::printf("512 opportunistic cores, 1000 six-tasklet tasks, %zu seed%s"
              " x %zu jobs\n\n",
              opts.seeds.size(), opts.seeds.size() == 1 ? "" : "s",
              opts.jobs);

  // The first three climates share the Figure 2 Weibull calibration (shape
  // 0.8, scale 4 h) so their differences are the *shape* of the climate;
  // the adversarial bursts are deliberately harsher (a 2-hourly preemption
  // wave claiming 70 % of the pool) — the stress case.
  std::vector<lobsim::RunSpec> specs;

  lobsim::RunSpec weibull = base_spec();
  weibull.label = "weibull";
  weibull.cluster.availability.kind = lobsim::AvailabilityKind::Weibull;
  specs.push_back(weibull);

  // Trace replay: a synthesized multi-month log stands in for a parsed
  // HTCondor eviction log; the shared_ptr is shared by every run of the
  // sweep (no per-run reload, still bitwise deterministic under --jobs).
  lobsim::RunSpec trace = base_spec();
  trace.label = "trace";
  trace.cluster.availability.kind = lobsim::AvailabilityKind::Trace;
  trace.cluster.availability.trace =
      std::make_shared<const std::vector<double>>(
          core::synthesize_availability_log(
              20000, util::Rng(2015).stream("fig2-trace"), 0.8, 4.0));
  specs.push_back(trace);

  lobsim::RunSpec diurnal = base_spec();
  diurnal.label = "diurnal";
  diurnal.cluster.availability.kind = lobsim::AvailabilityKind::Diurnal;
  diurnal.cluster.availability.diurnal_amplitude = 0.7;
  diurnal.cluster.availability.diurnal_peak_hour = 14.0;
  specs.push_back(diurnal);

  lobsim::RunSpec burst = base_spec();
  burst.label = "adversarial-burst";
  burst.cluster.availability.kind = lobsim::AvailabilityKind::AdversarialBurst;
  burst.cluster.availability.burst_period_hours = 2.0;
  burst.cluster.availability.burst_fraction = 0.7;
  specs.push_back(burst);

  lobsim::Campaign campaign(opts.jobs);
  for (const auto& spec : specs) campaign.add_seed_sweep(spec, opts.seeds);
  campaign.run();

  util::Table table({"model", "evictions", "retried tasklets", "goodput",
                     "failed", "makespan"});
  for (const auto& spec : specs) {
    util::RunningStats evicted, retried, goodput, failed, makespan;
    for (const auto& r : campaign.results()) {
      if (r.label != spec.label) continue;
      if (!r.ok()) {
        std::fprintf(stderr, "run %s/%llu failed: %s\n", r.label.c_str(),
                     static_cast<unsigned long long>(r.seed),
                     r.error.c_str());
        continue;
      }
      evicted.add(static_cast<double>(r.stats.tasks_evicted));
      retried.add(static_cast<double>(r.stats.tasklets_retried));
      failed.add(static_cast<double>(r.stats.tasks_failed));
      makespan.add(r.stats.makespan);
      const double total = r.stats.breakdown.total();
      goodput.add(total > 0.0 ? r.stats.breakdown.cpu / total : 0.0);
    }
    table.row({spec.label, util::Table::num(evicted.mean(), 1),
               util::Table::num(retried.mean(), 1),
               util::Table::num(100.0 * goodput.mean(), 1) + " %",
               util::Table::num(failed.mean(), 1),
               util::format_duration(makespan.mean())});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nReading (a few seeds scatter by +/-60 evictions per run; use");
  std::puts("--seeds 300 to compare climates): weibull and trace agree within");
  std::puts("a few percent (the trace *is* a weibull log, replayed); diurnal");
  std::puts("runs start at midnight and finish before the 14:00 low, so they");
  std::puts("live in the calm half of the day; the 2-hourly preemption waves");
  std::puts("are the harshest — deaths synchronize on the burst instants, so");
  std::puts("co-scheduled tasks (and planned merge groups) die together and");
  std::puts("goodput drops the most.");
  return 0;
}
