// fig16_200gbps_ramp — the 200 Gbps data-plane challenge scenario: the
// paper's saturated 10 Gbit/s campus uplink scaled to a multi-path
// federation (per-site uplinks feeding shared WAN trunks) and driven to
// 200 Gbit/s of offered streaming load in a phase-by-phase ramp.
//
// Three modes:
//   --mode ramp      least-loaded redirector, clean ramp to the target
//                    (exit code 1 unless the final phase achieves >= 85%)
//   --mode hotspot   first-available redirector: every open piles onto
//                    site 0, whose uplink pins aggregate throughput far
//                    below the target however hard the ramp pushes
//   --mode collapse  site 0's uplink collapses mid-ramp: its streams
//                    break, opens re-route, throughput dips and recovers
//                    (exit code 1 unless streams actually broke and the
//                    ramp still recovers past 70%)
//
// Usage: fig16_200gbps_ramp [--sites N] [--trunks N] [--target-gbps G]
//                           [--phases N] [--phase-seconds S] [--mode M]
//   --sites 8 --target-gbps 50   is the CI smoke configuration.
#include <cmath>
#include <cstdio>
#include <string>

#include "lobsim/scenarios.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace lobster;

namespace {

struct Options {
  lobsim::RampOptions ramp;
  std::string mode = "ramp";
};

Options parse(int argc, char** argv) {
  Options o;
  util::Args args(argc, argv,
                  "[--sites N] [--trunks N] [--target-gbps G] [--phases N] "
                  "[--phase-seconds S] [--mode ramp|hotspot|collapse]");
  while (args.next()) {
    if (args.is("--sites"))
      o.ramp.sites = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--trunks"))
      o.ramp.trunks = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--target-gbps"))
      o.ramp.target_gbps = args.positive();
    else if (args.is("--phases"))
      o.ramp.phases = static_cast<std::size_t>(args.integer(1));
    else if (args.is("--phase-seconds"))
      o.ramp.phase_seconds = args.positive();
    else if (args.is("--mode"))
      o.mode = args.text();
    else
      args.usage();
  }
  if (o.mode == "hotspot")
    o.ramp.policy = xrootd::PathPolicy::FirstAvailable;
  else if (o.mode == "collapse")
    o.ramp.uplink_collapse = true;
  else if (o.mode != "ramp")
    args.usage("unknown mode '" + o.mode + "'");
  return o;
}

std::string gbps(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto& ro = opt.ramp;
  std::printf(
      "=== Figure 16: 200 Gbps data plane (%s mode), ramp to %.0f Gbit/s "
      "===\n"
      "%zu sites (x%.1f Gbit/s uplink) over %zu shared trunks "
      "(x%.1f Gbit/s), %s redirector\n\n",
      opt.mode.c_str(), ro.target_gbps, ro.sites,
      1.5 * ro.target_gbps / static_cast<double>(ro.sites),
      std::min(ro.trunks, ro.sites),
      ro.target_gbps / static_cast<double>(std::min(ro.trunks, ro.sites)),
      ro.policy == xrootd::PathPolicy::LeastLoaded ? "least-loaded"
                                                   : "first-available");

  const lobsim::RampResult r = lobsim::run_200gbps_ramp(ro);

  util::Table table({"phase", "offered Gb/s", "achieved Gb/s", "site min",
                     "site max", "broken", "failed opens"});
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const auto& ph = r.phases[i];
    double lo = ph.site_gbps.empty() ? 0.0 : ph.site_gbps[0];
    double hi = lo;
    for (double g : ph.site_gbps) {
      lo = std::min(lo, g);
      hi = std::max(hi, g);
    }
    table.row({std::to_string(i + 1), gbps(ph.offered_gbps),
               gbps(ph.achieved_gbps), gbps(lo), gbps(hi),
               std::to_string(ph.broken_streams),
               std::to_string(ph.failed_opens)});
  }
  std::fputs(table.str().c_str(), stdout);

  const auto& last = r.phases.back();
  std::printf(
      "\npeak %.1f Gbit/s, final phase %.1f/%.1f Gbit/s; %llu streams "
      "completed, %llu broken; %llu kernel events\n",
      r.peak_gbps, last.achieved_gbps, ro.target_gbps,
      static_cast<unsigned long long>(r.streams_completed),
      static_cast<unsigned long long>(last.broken_streams),
      static_cast<unsigned long long>(r.events_executed));

  // Per-site breakdown of the final phase.
  util::Table sites({"site", "final-phase Gb/s"});
  for (std::size_t s = 0; s < last.site_gbps.size(); ++s)
    sites.row({"site-" + std::to_string(s), gbps(last.site_gbps[s])});
  std::fputs(sites.str().c_str(), stdout);

  bool ok = true;
  if (opt.mode == "ramp") {
    ok = last.achieved_gbps >= 0.85 * ro.target_gbps;
    std::printf("\nramp gate: final %.1f vs target %.0f Gbit/s -> %s\n",
                last.achieved_gbps, ro.target_gbps,
                ok ? "PASS (>= 85%)" : "FAIL (< 85%)");
  } else if (opt.mode == "hotspot") {
    // The hotspot must actually hurt: aggregate pinned well below target.
    ok = last.achieved_gbps < 0.5 * ro.target_gbps;
    std::printf("\nhotspot gate: final %.1f Gbit/s -> %s\n",
                last.achieved_gbps,
                ok ? "PASS (pinned below 50%)" : "FAIL (not a hotspot?)");
  } else {
    ok = last.broken_streams > 0 &&
         last.achieved_gbps >= 0.70 * ro.target_gbps;
    std::printf("\ncollapse gate: %llu broken, final %.1f Gbit/s -> %s\n",
                static_cast<unsigned long long>(last.broken_streams),
                last.achieved_gbps,
                ok ? "PASS (broke and recovered)" : "FAIL");
  }
  return ok ? 0 : 1;
}
