// fig07_merging_modes — reproduces Figure 7: "Number of finished analysis
// and merge tasks as a function of time for the sequential, hadoop, and
// interleaved merging modes.  The time of completion of the last merging
// task is denoted with a vertical bar. ... sequential merging takes the
// longest, and suffers from a long-tail effect ... Merging via Hadoop is
// more efficient and has a shorter tail.  Interleaved merging is less
// efficient in use of resources, but completes faster overall because it
// can be done concurrently with analysis."
//
// Runs as a campaign: `--seeds N` sweeps N seeds per merge mode (the
// timeline panels show the first seed; the aggregate table folds all) and
// `--jobs M` executes the 3xN runs M-wide.
#include <cstdio>

#include "bench_flags.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;

  const auto opts = benchflags::campaign_flags(argc, argv, 2015);

  std::puts("=== Figure 7: Merging Modes Compared ===");
  std::puts("1024 cores, 1500 analysis tasks, 360 MB output each, merged to");
  std::puts("3.5 GB files.  Sequential / hadoop / interleaved.\n");

  const auto campaign = lobsim::run_merge_campaign(opts.seeds, opts.jobs);
  const auto& results = campaign.detail;

  for (const auto& r : results) {
    std::printf("-- %s --\n", core::to_string(r.mode));
    std::printf("   per %s bin: analysis '#', merge '@' (1 char = 8 tasks)\n",
                util::format_duration(r.bin_seconds).c_str());
    for (std::size_t b = 0; b < r.analysis_per_bin.size(); ++b) {
      const double t = static_cast<double>(b) * r.bin_seconds;
      std::string bar;
      bar.append(static_cast<std::size_t>(r.analysis_per_bin[b] / 8.0), '#');
      bar.append(static_cast<std::size_t>(r.merge_per_bin[b] / 8.0), '@');
      const bool last_merge_here =
          r.merge_finish >= t && r.merge_finish < t + r.bin_seconds;
      std::printf("  %8s |%s%s\n", util::format_duration(t).c_str(),
                  bar.c_str(), last_merge_here ? "  <== last merge" : "");
    }
    std::printf("  analysis done %s, all merges done %s (%llu merge tasks)\n\n",
                util::format_duration(r.analysis_finish).c_str(),
                util::format_duration(r.merge_finish).c_str(),
                static_cast<unsigned long long>(r.merge_tasks));
  }

  util::Table table({"mode", "analysis done", "workload complete",
                     "merge tail after analysis"});
  for (const auto& r : results) {
    table.row({core::to_string(r.mode),
               util::format_duration(r.analysis_finish),
               util::format_duration(r.merge_finish),
               util::format_duration(r.merge_finish - r.analysis_finish)});
  }
  std::fputs(table.str().c_str(), stdout);

  if (opts.seeds.size() > 1) {
    std::printf("\nAcross %zu seeds (%zu jobs):\n", opts.seeds.size(),
                opts.jobs);
    util::Table agg({"mode", "workload complete", "merge tail", "merge tasks"});
    for (const auto& a : campaign.aggregate) {
      agg.row({a.label,
               util::format_duration(a.merge_finish.mean()) + " +/- " +
                   util::format_duration(a.merge_finish.stddev()),
               util::format_duration(a.merge_finish.mean() -
                                     a.analysis_finish.mean()),
               util::Table::num(a.merge_tasks.mean(), 1)});
    }
    std::fputs(agg.str().c_str(), stdout);
  }

  std::puts("\nPaper-shape check: sequential slowest with the longest tail;");
  std::puts("hadoop shortens the tail; interleaved completes first overall.");
  return 0;
}
