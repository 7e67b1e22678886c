// fig05_proxy_scalability — reproduces Figure 5: "Mean task overhead times
// as a function of number of tasks sharing one proxy cache, for both cold
// and hot worker caches.  One proxy cache can support approximately 1000
// hot worker caches."
//
// Cold caches pull the ~1.5 GB working set (through the proxy and its
// upstream); hot caches only small per-task traffic served from proxy RAM.
// The knee appears where aggregate demand saturates the proxy service
// bandwidth.
//
// Runs as a campaign: every (client count, seed) cell is its own DES
// instance, fanned out `--jobs` wide; `--seeds N` averages each point over
// N seeds.
#include <cstdio>
#include <vector>

#include "bench_flags.hpp"
#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;

  const auto opts = benchflags::campaign_flags(argc, argv, 2015);

  std::puts("=== Figure 5: Proxy Cache Scalability ===");
  std::puts("Concurrent tasks sharing one squid (10 Gbit/s service, 1 Gbit/s");
  std::puts("upstream); cold = 1.5 GB working set, hot = 25 MB residue.\n");

  const std::vector<std::size_t> counts{10,  50,   100,  250,  500,
                                       750, 1000, 1500, 2000, 3000};
  const auto points = lobsim::run_proxy_scaling(counts, opts.seeds, opts.jobs);
  if (opts.seeds.size() > 1)
    std::printf("(each point: mean over %zu seeds, %zu jobs)\n\n",
                opts.seeds.size(), opts.jobs);

  util::Table table({"tasks sharing proxy", "cold overhead", "hot overhead",
                     "hot profile"});
  double hot_max = 0.0;
  for (const auto& p : points) hot_max = std::max(hot_max, p.hot_overhead);
  for (const auto& p : points) {
    std::string hot = util::format_duration(p.hot_overhead);
    if (opts.seeds.size() > 1)
      hot += " +/- " + util::format_duration(p.hot_sd);
    table.row({util::Table::integer(static_cast<long long>(p.clients)),
               util::format_duration(p.cold_overhead), hot,
               util::bar(p.hot_overhead, hot_max, 40)});
  }
  std::fputs(table.str().c_str(), stdout);

  // Locate the knee: the first client count where hot overhead exceeds
  // twice its unloaded value.
  const double base = points.front().hot_overhead;
  std::size_t knee = counts.back();
  for (const auto& p : points) {
    if (p.hot_overhead > 2.0 * base) {
      knee = p.clients;
      break;
    }
  }
  std::puts("\nPaper-shape check (paper: one proxy sustains ~1000 hot worker");
  std::puts("caches before performance suffers):");
  std::printf("  measured knee (hot overhead > 2x unloaded): ~%zu clients\n",
              knee);
  std::printf("  cold/hot overhead ratio at 500 clients: %.1fx\n",
              points[4].cold_overhead / points[4].hot_overhead);
  return 0;
}
