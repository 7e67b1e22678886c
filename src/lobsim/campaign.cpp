#include "lobsim/campaign.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "util/thread_pool.hpp"

namespace lobster::lobsim {

namespace {
std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}
}  // namespace

void parallel_runs(std::size_t n, std::size_t jobs,
                   const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  util::ThreadPool pool(std::min(jobs, n));
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([&fn, i] { fn(i); });
  pool.wait();
}

Campaign::Campaign(std::size_t jobs) : jobs_(resolve_jobs(jobs)) {}

void Campaign::add(RunSpec spec) { specs_.push_back(std::move(spec)); }

void Campaign::add_seed_sweep(const RunSpec& base,
                              const std::vector<std::uint64_t>& seeds) {
  for (std::uint64_t seed : seeds) {
    RunSpec spec = base;
    spec.seed = seed;
    specs_.push_back(std::move(spec));
  }
}

void Campaign::add_grid(const std::vector<RunSpec>& specs,
                        const std::vector<std::uint64_t>& seeds) {
  for (const auto& spec : specs) add_seed_sweep(spec, seeds);
}

void Campaign::trace_to(std::string prefix, util::TraceFormat format) {
  trace_prefix_ = std::move(prefix);
  trace_format_ = format;
}

RunStats Campaign::execute(const RunSpec& spec,
                           std::shared_ptr<const EngineMetrics>* metrics_out) {
  Engine engine(spec.cluster, spec.workload, spec.seed,
                spec.metric_bin_seconds);
  if (!spec.trace_path.empty())
    engine.enable_tracing(spec.trace_path, spec.trace_format);
  if (spec.advisor.enabled) engine.enable_advisor(spec.advisor);
  if (spec.outage_start > 0.0 && spec.outage_duration > 0.0)
    engine.schedule_outage(spec.outage_start, spec.outage_duration);
  const EngineMetrics& m = engine.run(spec.time_cap);

  if (metrics_out) *metrics_out = std::make_shared<EngineMetrics>(m);
  return m;  // the RunStats slice
}

const std::vector<RunResult>& Campaign::run() {
  if (ran_) return results_;
  ran_ = true;
  if (!trace_prefix_.empty()) {
    // Assign paths before the pool starts so naming depends only on
    // submission order, never on thread interleaving.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      RunSpec& spec = specs_[i];
      if (!spec.trace_path.empty()) continue;
      spec.trace_format = trace_format_;
      spec.trace_path = trace_prefix_ + "-run" + std::to_string(i) + "-seed" +
                        std::to_string(spec.seed) +
                        util::trace_extension(trace_format_);
    }
  }
  results_.resize(specs_.size());
  // Each worker writes only its own submission slot; no shared Engine
  // state crosses threads (one DES kernel and RNG universe per run).
  parallel_runs(specs_.size(), jobs_, [this](std::size_t i) {
    const RunSpec& spec = specs_[i];
    RunResult& out = results_[i];
    out.label = spec.label;
    out.seed = spec.seed;
    try {
      std::shared_ptr<const EngineMetrics> metrics;
      out.stats = execute(spec, keep_metrics_ ? &metrics : nullptr);
      out.metrics = std::move(metrics);
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
  });
  return results_;
}

std::vector<CampaignAggregate> Campaign::aggregate() const {
  std::vector<CampaignAggregate> out;
  auto find = [&out](const std::string& label) -> CampaignAggregate& {
    for (auto& agg : out)
      if (agg.label == label) return agg;
    out.emplace_back();
    out.back().label = label;
    return out.back();
  };
  for (const auto& r : results_) {
    CampaignAggregate& agg = find(r.label);
    if (!r.ok()) {
      ++agg.errors;
      continue;
    }
    ++agg.runs;
    if (!r.stats.completed) ++agg.incomplete;
    agg.makespan.add(r.stats.makespan);
    agg.analysis_finish.add(r.stats.last_analysis_finish);
    agg.merge_finish.add(r.stats.last_merge_finish);
    agg.tasks_failed.add(static_cast<double>(r.stats.tasks_failed));
    agg.tasks_evicted.add(static_cast<double>(r.stats.tasks_evicted));
    agg.tasklets_retried.add(static_cast<double>(r.stats.tasklets_retried));
    agg.merge_tasks.add(static_cast<double>(r.stats.merge_tasks_completed));
    agg.bytes_streamed.add(r.stats.bytes_streamed);
    agg.bytes_staged_out.add(r.stats.bytes_staged_out);
    agg.peak_running.add(static_cast<double>(r.stats.peak_running));
  }
  return out;
}

}  // namespace lobster::lobsim
