// micro_net — the 200 Gbps data-plane bench: incremental max-min solver
// (src/des/bandwidth.hpp) vs the naive full-recompute water-filler
// (tests/reference_link.hpp) under dispatch-burst churn at 1k / 10k / 100k
// concurrent background flows.
//
// The workload is the saturated-uplink regime of the big runs: a large
// steady population of long transfers, plus waves of same-timestamp joins
// of small transfers that complete quickly (a dispatch burst followed by
// its drain).  The naive link pays a full sort + water-fill per event; the
// incremental link coalesces each burst into one solve.  The
// headline (BENCH_micro_net.json, wired into the CI perf gate) is the
// incremental link's event throughput at 100k flows; the binary exits
// non-zero unless the incremental solver beats the full-recompute baseline
// by >= 10x there, so the PR's central perf claim is machine-checked.
//
// `--headline-only` measures just the 100k point (what CI runs); the full
// run prints the 1k/10k/100k comparison table.
#include <cstdio>
#include <limits>

#include "bench_json.hpp"
#include "des/bandwidth.hpp"
#include "des/simulation.hpp"
#include "reference_link.hpp"
#include "util/rng.hpp"

namespace des = lobster::des;
namespace lu = lobster::util;
namespace bj = lobster::benchjson;
namespace testref = lobster::testref;

namespace {

constexpr double kCapacity = 2.5e10;  // 200 Gbit/s in bytes/s
constexpr double kInf = std::numeric_limits<double>::infinity();

template <typename Link>
des::Process xfer(Link& link, double bytes) {
  co_await link.transfer(bytes);
}

// Background population setup: the incremental link batches raw joins fine;
// the reference would pay a full recompute per join, so it preloads.
void add_background(des::BandwidthLink& l, double bytes, double cap) {
  (void)l.start_flow(bytes, cap);
}
void add_background(testref::ReferenceLink& l, double bytes, double cap) {
  l.preload(bytes, cap);
}
void settle(des::BandwidthLink&) {}  // the t=0 batch flush settles it
void settle(testref::ReferenceLink& l) { l.settle(); }

// Dispatch-burst churn over a steady n-flow population: `waves` bursts of
// `burst` same-timestamp small transfers, one second apart, each draining
// before the next.  Returns simulator events per wall second over the
// churn phase only (population setup and the t=0 settle are excluded).
template <typename Link>
bj::Headline churn(std::size_t n, int waves, int burst) {
  des::Simulation sim;
  Link link(sim, kCapacity);
  lu::Rng rng(20260808);
  for (std::size_t i = 0; i < n; ++i) {
    // 30% capped near the fair share so the cap-bound boundary is live;
    // the rest uncapped (the saturated-uplink regime: k ~ 0.3 n).
    const double cap =
        rng.chance(0.3) ? rng.uniform(0.5, 2.0) * kCapacity /
                              static_cast<double>(n)
                        : kInf;
    add_background(link, 1e18, cap);
  }
  settle(link);
  for (int w = 0; w < waves; ++w) {
    const double at = 1.0 + static_cast<double>(w);
    for (int b = 0; b < burst; ++b)
      sim.schedule(at, [&sim, &link] { sim.spawn(xfer(link, 1e3)); });
  }
  sim.run_until(0.5);  // flush setup events outside the timed region
  const std::uint64_t events0 = sim.events_executed();
  bj::Stopwatch sw;
  sw.start();
  sim.run_until(1.5 + static_cast<double>(waves));
  const double wall = sw.stop();
  const std::uint64_t events = sim.events_executed() - events0;
  return {static_cast<double>(events), wall};
}

struct Row {
  std::size_t flows;
  bj::Headline inc;
  double inc_eps;
  double ref_eps;
};

Row measure(std::size_t n, int inc_waves, int ref_waves, int burst) {
  const bj::Headline inc = churn<des::BandwidthLink>(n, inc_waves, burst);
  const bj::Headline ref = churn<testref::ReferenceLink>(n, ref_waves, burst);
  return {n, inc, inc.events_per_s(), ref.events_per_s()};
}

void print_row(const Row& r) {
  std::printf("  %7zu | %12.3g | %12.3g | %8.1fx\n", r.flows, r.inc_eps,
              r.ref_eps, r.inc_eps / r.ref_eps);
}

}  // namespace

int main(int argc, char** argv) {
  const bool headline_only = bj::headline_only(argc, argv);
  constexpr int kBurst = 100;
  std::printf("micro_net: dispatch-burst churn, incremental vs "
              "full-recompute max-min solver\n");
  std::printf("    flows |  inc events/s |  ref events/s | speedup\n");
  if (!headline_only) {
    print_row(measure(1000, 40, 20, kBurst));
    print_row(measure(10000, 40, 8, kBurst));
  }
  const Row big = measure(100000, 20, 3, kBurst);
  print_row(big);
  // The snapshot the perf gate diffs across PRs: the incremental link's
  // throughput at the 100k-flow point.
  bj::write_snapshot("micro_net", big.inc);
  const double speedup = big.inc_eps / big.ref_eps;
  if (!(speedup >= 10.0)) {
    std::fprintf(stderr,
                 "micro_net: FAIL: incremental solver only %.1fx the "
                 "full-recompute baseline at 100k flows (need >= 10x)\n",
                 speedup);
    return 1;
  }
  std::printf("micro_net: OK: %.1fx at 100k flows (>= 10x required)\n",
              speedup);
  return 0;
}
