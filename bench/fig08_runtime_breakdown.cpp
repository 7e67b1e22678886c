// fig08_runtime_breakdown — reproduces Figure 8 (the runtime table of the
// ~10k-core data processing run):
//
//     Task Phase      Time (h)   Fraction (%)
//     Task CPU Time    171036        53.4
//     Task I/O Time     65356        20.4
//     Task Failed       44830        14.0
//     WQ Stage In       22056         6.9
//     WQ Stage Out       8954         2.8
//
// The simulated run streams analysis input over a saturated 10 Gbit/s
// campus uplink, suffers a transient wide-area outage, and stages output
// through a Chirp server — the same regime the paper measured.
#include <cstdio>

#include "lobsim/scenarios.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace lobster;
  util::Args args(argc, argv, "");
  if (args.next()) args.usage();

  std::puts("=== Figure 8: Data Processing Runtime breakdown ===");
  std::puts("~10k-core simulated data processing run (see fig10 for the");
  std::puts("timeline of the same run).\n");

  auto s = lobsim::data_processing_scenario();
  lobsim::Engine engine(s.cluster, s.workload, s.seed);
  engine.schedule_outage(s.outage_start, s.outage_duration);
  const auto& m = engine.run(10.0 * 86400.0);
  const auto b = m.monitor.breakdown();

  struct Row {
    const char* phase;
    double seconds;
    double paper_fraction;
  };
  const double total = b.total();
  const Row rows[] = {
      {"Task CPU Time", b.cpu, 53.4},
      {"Task I/O Time", b.io, 20.4},
      {"Task Failed", b.failed, 14.0},
      {"WQ Stage In", b.stage_in + b.other, 6.9},
      {"WQ Stage Out", b.stage_out, 2.8},
  };

  util::Table table({"Task Phase", "Time (h)", "Fraction (%)",
                     "Paper fraction (%)"});
  for (const auto& r : rows) {
    table.row({r.phase, util::Table::num(r.seconds / 3600.0, 0),
               util::Table::num(100.0 * r.seconds / total, 1),
               util::Table::num(r.paper_fraction, 1)});
  }
  table.row({"Total", util::Table::num(total / 3600.0, 0), "", ""});
  std::fputs(table.str().c_str(), stdout);

  std::printf(
      "\nRun summary: %llu tasks completed, %llu failed, %llu evicted;\n"
      "peak %zu concurrent tasks; %s streamed over the WAN; makespan %s.\n",
      static_cast<unsigned long long>(m.tasks_completed),
      static_cast<unsigned long long>(m.tasks_failed),
      static_cast<unsigned long long>(m.tasks_evicted), m.peak_running,
      util::format_bytes(m.bytes_streamed).c_str(),
      util::format_duration(m.makespan).c_str());
  std::puts("\nPaper-shape check: ~3/4 of runtime in the task itself (CPU +");
  std::puts("I/O); failed tasks the largest loss; stage-out the smallest row.");
  return 0;
}
