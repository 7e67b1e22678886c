// campaign.hpp — the parallel experiment substrate.
//
// The paper's evaluation is a *family* of runs: sweeps over proxy counts,
// cache modes, merge strategies, and two production-scale campaigns.  Every
// figure bench used to drive one Engine serially with a single seed; a
// Campaign executes N independent Engine instances (seed sweeps, parameter
// sweeps) across a util::ThreadPool instead.  Each run is a self-contained
// RunSpec — its own DES kernel, its own RNG universe derived from its own
// seed — so runs never share mutable state and the campaign parallelises
// embarrassingly.
//
// Determinism: results are indexed by submission order no matter which
// worker thread executed them, and aggregation folds them in that order on
// the calling thread, so a --jobs 8 campaign aggregates bitwise identically
// to a serial one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lobsim/engine.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace lobster::lobsim {

/// One simulation to execute: a complete Engine configuration.
struct RunSpec {
  /// Grouping key for aggregation (runs sharing a label aggregate
  /// together — e.g. one label per merge mode, swept over seeds).
  std::string label = "run";
  ClusterParams cluster;
  WorkloadParams workload;
  std::uint64_t seed = 2015;
  double time_cap = 30.0 * 86400.0;
  double metric_bin_seconds = 600.0;
  /// Optional WAN outage injected before the run (0 = none).
  double outage_start = 0.0;
  double outage_duration = 0.0;
  /// Non-empty: write this run's trace (spans + counter snapshot) here.
  /// Campaign::trace_to fills these per run when a whole campaign traces.
  std::string trace_path;
  util::TraceFormat trace_format = util::TraceFormat::Jsonl;
  /// Online advisor loop (advisor.hpp); enabled=false leaves the engine —
  /// and its trace bytes — exactly as before.
  AdvisorConfig advisor;
};

struct RunResult {
  std::string label;
  std::uint64_t seed = 0;
  RunStats stats;
  /// Retained full metrics (timelines, monitor) when the campaign was
  /// asked to keep them; null otherwise.
  std::shared_ptr<const EngineMetrics> metrics;
  /// Non-empty when the run threw instead of completing.
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Mean/stddev aggregate over every successful run sharing one label.
struct CampaignAggregate {
  std::string label;
  std::uint64_t runs = 0;       ///< successful runs folded in
  std::uint64_t errors = 0;     ///< runs that threw
  /// Runs that finished the simulation but not the workflow (time-cap
  /// truncation); they are folded into the stats, so when this is non-zero
  /// the makespan column is a lower bound.
  std::uint64_t incomplete = 0;
  util::RunningStats makespan;
  util::RunningStats analysis_finish;
  util::RunningStats merge_finish;
  util::RunningStats tasks_failed;
  util::RunningStats tasks_evicted;
  util::RunningStats tasklets_retried;
  util::RunningStats merge_tasks;
  util::RunningStats bytes_streamed;
  util::RunningStats bytes_staged_out;
  util::RunningStats peak_running;
};

class Campaign {
 public:
  /// `jobs` worker threads; 0 means hardware concurrency, 1 runs inline on
  /// the calling thread (no pool).
  explicit Campaign(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }
  /// Retain each run's full EngineMetrics (timelines for figure panels).
  /// Off by default: a big sweep only needs the scalar RunStats.
  void keep_metrics(bool keep) { keep_metrics_ = keep; }

  void add(RunSpec spec);
  /// The base spec replicated across `seeds` (label kept for aggregation).
  void add_seed_sweep(const RunSpec& base,
                      const std::vector<std::uint64_t>& seeds);
  /// The cross product specs x seeds: every cell of a parameter grid (e.g.
  /// dispatch policy x availability climate), each swept over every seed.
  /// Cells aggregate by their spec's label, so give every spec a distinct
  /// one ("fifo/weibull", ...); results stay in submission order (specs
  /// outer, seeds inner).
  void add_grid(const std::vector<RunSpec>& specs,
                const std::vector<std::uint64_t>& seeds);
  std::size_t size() const { return specs_.size(); }

  /// Trace every queued-and-future run to
  /// `<prefix>-run<I>-seed<S><ext>` where I is the run's submission index.
  /// Naming by submission index (not worker thread) keeps the file set —
  /// and each file's bytes — identical between serial and parallel
  /// campaigns.  Specs that already carry an explicit trace_path keep it.
  void trace_to(std::string prefix,
                util::TraceFormat format = util::TraceFormat::Jsonl);

  /// Execute every queued run across the pool.  Safe to call once; returns
  /// results in submission order.
  const std::vector<RunResult>& run();
  const std::vector<RunResult>& results() const { return results_; }

  /// Aggregates grouped by label, labels in first-submission order, runs
  /// folded in submission order (serial and parallel campaigns agree
  /// bitwise).
  std::vector<CampaignAggregate> aggregate() const;

  /// Execute a single spec to completion (what each worker thread runs).
  static RunStats execute(const RunSpec& spec,
                          std::shared_ptr<const EngineMetrics>* metrics_out =
                              nullptr);

 private:
  std::size_t jobs_;
  bool keep_metrics_ = false;
  bool ran_ = false;
  std::vector<RunSpec> specs_;
  std::vector<RunResult> results_;
  std::string trace_prefix_;
  util::TraceFormat trace_format_ = util::TraceFormat::Jsonl;
};

/// Order-preserving parallel for: invoke fn(0..n-1) across `jobs` threads
/// (inline when jobs <= 1).  fn must confine itself to index-owned state;
/// exceptions must not escape fn.
void parallel_runs(std::size_t n, std::size_t jobs,
                   const std::function<void(std::size_t)>& fn);

}  // namespace lobster::lobsim
