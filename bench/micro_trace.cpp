// micro_trace — overhead of the structured tracing layer.
//
// The design bar: tracing must be near-free when disabled (the DES kernel
// and the engine hot paths pay one predictable branch) and cheap enough
// when enabled that tracing a production-scale campaign is routine.
//
//  * BM_SpanDisabled / BM_InstantDisabled: the per-call-site cost with no
//    sink installed — this is what every span site in the engine pays on an
//    untraced run.
//  * BM_SpanJsonl / BM_SpanChrome: the cost of a live span against an
//    in-memory sink (event formatting, no file I/O — files are written once
//    at close).
//  * BM_CounterAdd / BM_GaugeAdd: the counter-plane add every
//    instrumented increment pays, traced or not.
//  * BM_EngineUntraced / BM_EngineTraced: the end-to-end check on the
//    micro_engine workload — the `overhead` counter on BM_EngineTraced is
//    the traced/untraced wall-clock ratio; the acceptance bar for disabled
//    tracing is under ~2% (compare BM_EngineUntraced against the seed
//    micro_engine numbers), and enabled tracing should stay within a few
//    percent on this workload.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "lobsim/campaign.hpp"
#include "util/trace.hpp"

using namespace lobster;

namespace {

lobsim::RunSpec small_spec() {
  lobsim::RunSpec spec;
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 600;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  return spec;
}

double time_run(const lobsim::RunSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  lobsim::Campaign::execute(spec);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

// ---- per-call-site costs ----------------------------------------------------

void BM_SpanDisabled(benchmark::State& state) {
  util::Tracer tracer;  // no sink: every span site degenerates to a branch
  double clock = 0.0;
  tracer.bind_clock(&clock);
  for (auto _ : state) {
    util::Span span = tracer.span("task", "analysis", 7);
    span.arg("cpu", 1.0);
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_InstantDisabled(benchmark::State& state) {
  util::Tracer tracer;
  double clock = 0.0;
  tracer.bind_clock(&clock);
  for (auto _ : state) {
    tracer.instant("lobsim", "task_failed", 0, {{"exit", 211.0}});
    benchmark::DoNotOptimize(tracer);
  }
}
BENCHMARK(BM_InstantDisabled);

void BM_SpanJsonl(benchmark::State& state) {
  util::Tracer tracer;
  double clock = 0.0;
  tracer.bind_clock(&clock);
  tracer.set_sink(
      std::make_unique<util::JsonlTraceSink>(""));  // in-memory buffer
  for (auto _ : state) {
    clock += 1.0;
    util::Span span = tracer.span("task", "analysis", 7);
    span.arg("cpu", 1.0);
  }
}
BENCHMARK(BM_SpanJsonl);

void BM_SpanChrome(benchmark::State& state) {
  util::Tracer tracer;
  double clock = 0.0;
  tracer.bind_clock(&clock);
  tracer.set_sink(std::make_unique<util::ChromeTraceSink>(""));
  for (auto _ : state) {
    clock += 1.0;
    util::Span span = tracer.span("task", "analysis", 7);
    span.arg("cpu", 1.0);
  }
}
BENCHMARK(BM_SpanChrome);

void BM_CounterAdd(benchmark::State& state) {
  util::CounterRegistry registry;
  util::Counter* c = &registry.counter("bench.micro_trace.counter_add");
  for (auto _ : state) {
    c->add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeAdd(benchmark::State& state) {
  util::CounterRegistry registry;
  util::Gauge* g = &registry.gauge("bench.micro_trace.gauge_set");
  for (auto _ : state) {
    g->add(1.5);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GaugeAdd);

// ---- end-to-end engine overhead ---------------------------------------------

void BM_EngineUntraced(benchmark::State& state) {
  const lobsim::RunSpec spec = small_spec();
  for (auto _ : state) {
    const auto stats = lobsim::Campaign::execute(spec);
    benchmark::DoNotOptimize(stats.makespan);
  }
}
BENCHMARK(BM_EngineUntraced)->Unit(benchmark::kMillisecond);

void BM_EngineTraced(benchmark::State& state) {
  lobsim::RunSpec spec = small_spec();
  // Empty path: the full event stream is recorded and formatted in memory,
  // but nothing hits the filesystem — isolates tracing cost from disk.
  spec.trace_path = "";
  for (auto _ : state) {
    lobsim::Engine engine(spec.cluster, spec.workload, spec.seed,
                          spec.metric_bin_seconds);
    engine.enable_tracing("", util::TraceFormat::Jsonl);
    const auto& m = engine.run(spec.time_cap);
    benchmark::DoNotOptimize(m.makespan);
  }
  // One out-of-loop overhead sample for the report: traced / untraced.
  const double untraced = time_run(small_spec());
  lobsim::RunSpec traced = small_spec();
  lobsim::Engine engine(traced.cluster, traced.workload, traced.seed,
                        traced.metric_bin_seconds);
  engine.enable_tracing("", util::TraceFormat::Jsonl);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(traced.time_cap);
  const auto t1 = std::chrono::steady_clock::now();
  const double traced_s = std::chrono::duration<double>(t1 - t0).count();
  state.counters["overhead"] =
      untraced > 0.0 ? traced_s / untraced : 0.0;
}
BENCHMARK(BM_EngineTraced)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
