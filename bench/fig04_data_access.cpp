// fig04_data_access — reproduces Figure 4: "The overall runtime for two
// different data access methods split into data processing and general
// overhead.  Staging of files before and after execution results in less
// CPU utilization but overall runtime longer than streaming the data into
// the task as it runs."
//
// Mechanism reproduced: an analysis reads only a fraction of each input
// file (paper §4.2), so streaming (XrootD) moves less data than staging
// (WQ/Chirp), which must transfer whole files before execution.
//
// Runs as a campaign: `--seeds N` sweeps N seeds per access mode and
// reports mean +/- stddev; `--jobs M` executes the runs M-wide.
#include <cstdio>

#include "bench_flags.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;

  const auto opts = benchflags::campaign_flags(argc, argv, 2015);

  std::puts("=== Figure 4: Data Access Methods Compared ===");
  std::puts("512 cores, 500 tasks, 300 MB/tasklet inputs; staging transfers");
  std::puts("whole files, streaming reads the needed fraction on the fly.\n");

  const auto campaign = lobsim::run_data_access_campaign(opts.seeds, opts.jobs);
  const auto& results = campaign.detail;

  util::Table table({"mode", "processing (s/task)", "overhead (s/task)",
                     "total (s/task)", "makespan", "profile"});
  double total_max = 0.0;
  for (const auto& r : results)
    total_max = std::max(total_max, r.processing_time + r.overhead_time);
  for (const auto& r : results) {
    const double total = r.processing_time + r.overhead_time;
    table.row({r.mode, util::Table::num(r.processing_time, 1),
               util::Table::num(r.overhead_time, 1),
               util::Table::num(total, 1), util::format_duration(r.makespan),
               util::bar(total, total_max, 40)});
  }
  std::fputs(table.str().c_str(), stdout);

  if (opts.seeds.size() > 1) {
    std::printf("\nAcross %zu seeds (%zu jobs):\n", opts.seeds.size(),
                opts.jobs);
    util::Table agg({"mode", "processing (s/task)", "overhead (s/task)",
                     "makespan"});
    for (const auto& a : campaign.aggregate) {
      agg.row({a.mode,
               util::Table::num(a.processing_time.mean(), 1) + " +/- " +
                   util::Table::num(a.processing_time.stddev(), 1),
               util::Table::num(a.overhead_time.mean(), 1) + " +/- " +
                   util::Table::num(a.overhead_time.stddev(), 1),
               util::format_duration(a.makespan.mean()) + " +/- " +
                   util::format_duration(a.makespan.stddev())});
    }
    std::fputs(agg.str().c_str(), stdout);
  }

  const auto& stage = results[0];
  const auto& stream = results[1];
  std::puts("\nPaper-shape check (paper: staging => lower CPU utilization,");
  std::puts("longer overall runtime; streaming wins):");
  std::printf("  staging total/task  = %.0f s (overhead %.0f s)\n",
              stage.processing_time + stage.overhead_time,
              stage.overhead_time);
  std::printf("  streaming total/task = %.0f s (overhead %.0f s)\n",
              stream.processing_time + stream.overhead_time,
              stream.overhead_time);
  std::printf("  streaming faster by %.1fx overall\n",
              (stage.processing_time + stage.overhead_time) /
                  (stream.processing_time + stream.overhead_time));
  return 0;
}
