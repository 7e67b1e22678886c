// micro_des — google-benchmark microbenchmarks for the DES kernel: raw
// event throughput, coroutine process churn, resource handoff, and
// fair-share bandwidth-link flow churn (the hot path of the 10k-core runs).
//
// All timed regions measure sim.run() only — scenario setup (scheduling the
// event burst, spawning the processes) happens outside the measurement, so
// the numbers are steady-state kernel throughput, not allocator warm-up.
// The headline event-throughput measurement additionally writes
// BENCH_micro_des.json (see bench_json.hpp) for the CI perf-regression
// gate, the Engine-shaped push pattern writes BENCH_micro_des_engine.json,
// and the link's flow churn writes BENCH_micro_des_link.json (uncapped
// flows) and BENCH_micro_des_link_capped.json (cap-bound flows under
// capacity); `--headline-only` runs just those four.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "des/bandwidth.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"
#include "util/rng.hpp"

namespace des = lobster::des;
namespace lu = lobster::util;
namespace bj = lobster::benchjson;

namespace {

// Headline: 1M lightweight callbacks over 100k distinct timestamps (about
// ten same-timestamp events per drain batch — the tie density an Engine run
// produces through event triggers and zero-delay resumes).  Insertion order
// is scattered by a prime stride so the queue cannot ride a sorted input.
bj::Headline headline_event_throughput() {
  constexpr std::uint64_t kEvents = 1000000;
  constexpr int kReps = 3;
  bj::Headline best;
  for (int rep = 0; rep < kReps; ++rep) {
    des::Simulation sim;
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const double at = static_cast<double>((i * 7919) % 100000) * 0.01;
      sim.schedule(at, [&sink] { ++sink; });
    }
    bj::Stopwatch sw;
    sw.start();
    sim.run();
    const double wall = sw.stop();
    benchmark::DoNotOptimize(sink);
    if (best.wall_s == 0.0 || wall < best.wall_s)
      best = {static_cast<double>(kEvents), wall};
  }
  return best;
}

// Second headline, Engine-shaped traffic: 512 coroutines each re-delaying
// 1500 times by 60 s (an idle-slot poll) or 0-600 s (a task segment),
// beside 64 worker-death sentinels hours to days out and a 10-day time
// cap.  The sentinels are what stretched the calendar queue's buckets to
// hours.
des::Process engine_slot(des::Simulation& sim, lu::Rng rng) {
  for (int i = 0; i < 1500; ++i)
    co_await sim.delay(rng.chance(0.5) ? 60.0 : rng.uniform(0.0, 600.0));
}

bj::Headline headline_engine_pattern() {
  constexpr std::uint64_t kSlots = 512;
  constexpr int kReps = 3;
  bj::Headline best;
  for (int rep = 0; rep < kReps; ++rep) {
    des::Simulation sim;
    lu::Rng rng(2015);
    sim.schedule(864000.0, [] {});
    for (std::uint64_t i = 0; i < kSlots / 8; ++i)
      sim.schedule(rng.uniform(3600.0, 5.0 * 86400.0), [] {});
    for (std::uint64_t i = 0; i < kSlots; ++i)
      sim.spawn(engine_slot(sim, rng.stream("slot", i)));
    bj::Stopwatch sw;
    sw.start();
    sim.run();
    const double wall = sw.stop();
    const auto events = static_cast<double>(sim.events_executed());
    if (best.wall_s == 0.0 || wall < best.wall_s) best = {events, wall};
  }
  return best;
}

des::Process transfer_proc(des::BandwidthLink& link, double bytes,
                           double cap) {
  co_await link.transfer(bytes, cap);
}

// Link churn: `flows` transfers of 1-100 MB joining at uniform times over
// 10 s on a 1 GB/s link — one cap class, hundreds to thousands of flows in
// flight.
void schedule_churn(des::Simulation& sim, des::BandwidthLink& link, int flows,
                    lu::Rng& rng, double cap = des::BandwidthLink::kUncapped) {
  for (int i = 0; i < flows; ++i) {
    const double at = rng.uniform(0.0, 10.0);
    const double bytes = rng.uniform(1e6, 1e8);
    sim.schedule(at, [&sim, &link, bytes, cap] {
      sim.spawn(transfer_proc(link, bytes, cap));
    });
  }
}

// Third and fourth headlines, the link: the BM_BandwidthFlowChurn/4000
// shape, 50 seeded simulations per timed region.  Uncapped, every join
// moves the fair share (~0.15 s a region).  Capped at 200 kB/s, all 4000
// flows fit under the capacity at once, so the link never saturates and
// only a join that overtakes the head moves its next completion: fig16's
// per-stream-capped links.  The unit is a completed transfer.
bj::Headline headline_link_churn(double cap) {
  constexpr int kFlows = 4000;
  constexpr int kSims = 50;
  constexpr int kReps = 3;
  struct Churn {
    des::Simulation sim;
    des::BandwidthLink link{sim, 1e9};
  };
  bj::Headline best;
  best.unit = "transfers";
  for (int rep = 0; rep < kReps; ++rep) {
    lu::Rng rng(7);
    std::vector<std::unique_ptr<Churn>> runs;
    for (int i = 0; i < kSims; ++i) {
      runs.push_back(std::make_unique<Churn>());
      schedule_churn(runs.back()->sim, runs.back()->link, kFlows, rng, cap);
    }
    bj::Stopwatch sw;
    sw.start();
    for (const auto& r : runs) r->sim.run();
    const double wall = sw.stop();
    if (best.wall_s == 0.0 || wall < best.wall_s) {
      best.events = static_cast<double>(kFlows) * kSims;
      best.wall_s = wall;
    }
  }
  return best;
}

}  // namespace

static void BM_EventScheduling(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 10000; ++i)
      sim.schedule(static_cast<double>(i % 97), [&sink] { ++sink; });
    state.ResumeTiming();
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventScheduling);

namespace {
des::Process ticker(des::Simulation& sim, int ticks) {
  for (int i = 0; i < ticks; ++i) co_await sim.delay(1.0);
}
}  // namespace

static void BM_CoroutineProcesses(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    for (int i = 0; i < n; ++i) sim.spawn(ticker(sim, 20));
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * n * 20);
}
BENCHMARK(BM_CoroutineProcesses)->Arg(100)->Arg(1000);

namespace {
des::Process resource_user(des::Simulation& sim, des::Resource& res) {
  for (int i = 0; i < 10; ++i) {
    auto token = co_await res.acquire();
    co_await sim.delay(0.5);
  }
}
}  // namespace

static void BM_ResourceHandoff(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    des::Resource res(sim, 4);
    for (int i = 0; i < 64; ++i) sim.spawn(resource_user(sim, res));
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 10);
}
BENCHMARK(BM_ResourceHandoff);

static void BM_BandwidthFlowChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  lu::Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    des::Simulation sim;
    des::BandwidthLink link(sim, 1e9);
    schedule_churn(sim, link, flows, rng);
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_BandwidthFlowChurn)->Arg(100)->Arg(1000)->Arg(4000);

int main(int argc, char** argv) {
  const bool headline_only = bj::headline_only(argc, argv);
  bj::strip_headline_flag(&argc, argv);
  bj::write_snapshot("micro_des", headline_event_throughput());
  bj::write_snapshot("micro_des_engine", headline_engine_pattern());
  bj::write_snapshot("micro_des_link",
                     headline_link_churn(des::BandwidthLink::kUncapped));
  bj::write_snapshot("micro_des_link_capped", headline_link_churn(2e5));
  if (headline_only) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
