// Golden-metrics regression harness: a fixed campaign (four seeds through
// the weibull and diurnal climates, plus the multi-site, advisor, hadoop and
// time-capped families) is snapshotted field by field against a checked-in
// expectation file.  Every RunStats field is pinned, each run's Monitor
// timelines are pinned through a digest, and one traced run pins its trace
// line for line.  Any drift in the engine's deterministic output — an RNG
// stream reordered, a metric counted differently, a model subtly changed, a
// process resumed at a different instant — fails with a readable per-line
// diff instead of passing silently.
//
// To regenerate after an *intentional* behaviour change:
//
//   LOBSTER_UPDATE_GOLDEN=1 ./build/tests/golden_metrics_test
//
// and commit the rewritten tests/golden/availability_golden.txt.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "lobsim/campaign.hpp"
#include "lobsim/scenarios.hpp"
#include "util/units.hpp"

#ifndef LOBSTER_GOLDEN_DIR
#error "LOBSTER_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace lobster::lobsim {
namespace {

const char* kGoldenPath = LOBSTER_GOLDEN_DIR "/availability_golden.txt";

RunSpec golden_spec(AvailabilityKind kind) {
  RunSpec spec;
  spec.label = to_string(kind);
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.cluster.availability.kind = kind;
  spec.workload.num_tasklets = 300;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.merge_mode = core::MergeMode::Interleaved;
  spec.time_cap = 10.0 * 86400.0;
  return spec;
}

// A small three-site fleet for the per-site policies: the weibull campus of
// golden_spec, an adversarial-burst partition whose share drains in retry
// storms, and a dedicated cloud that runs dry first and then steals or idles
// (fig14's stealing experiment in miniature).
RunSpec fleet_spec(DispatchMode mode) {
  RunSpec spec = golden_spec(AvailabilityKind::Weibull);
  spec.label = to_string(mode);
  spec.workload.dispatch = mode;
  spec.workload.tasklet_cpu_mean = 1800.0;
  spec.workload.tasklet_cpu_sigma = 600.0;
  SiteParams burst;
  burst.name = "burst";
  burst.target_cores = 64;
  burst.ramp_seconds = 60.0;
  burst.availability.kind = AvailabilityKind::AdversarialBurst;
  burst.availability.scale_hours = 5.0;
  burst.availability.burst_period_hours = 3.0;
  burst.availability.burst_fraction = 0.8;
  SiteParams cloud;
  cloud.name = "cloud";
  cloud.target_cores = 32;
  cloud.ramp_seconds = 60.0;
  cloud.evictions = false;
  spec.cluster.extra_sites = {burst, cloud};
  return spec;
}

// %.17g round-trips doubles exactly: the golden file pins bit-for-bit
// behaviour, not a tolerance band.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// FNV-1a over bytes and over the bit patterns of doubles: folds a whole
// timeline or trace into one pinned line.
class Fnv {
 public:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(bits >> (8 * i)));
  }
  void add(const std::string& text) {
    for (char c : text) byte(static_cast<unsigned char>(c));
    byte('\n');
  }
  [[nodiscard]] std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Every timeline the figure benches plot, bin by bin, plus the failure
// events behind Figure 11's bottom panel.
std::string timeline_digest(const EngineMetrics& m) {
  Fnv d;
  auto series = [&d](const util::TimeSeries& ts, bool level) {
    d.add(static_cast<double>(ts.nbins()));
    for (std::size_t b = 0; b < ts.nbins(); ++b)
      d.add(level ? ts.mean_level(b) : ts.sum(b));
  };
  auto values = [&d](const std::vector<double>& v) {
    d.add(static_cast<double>(v.size()));
    for (double x : v) d.add(x);
  };
  const core::Monitor& mon = m.monitor;
  series(mon.completed_timeline(), false);
  series(mon.failed_timeline(), false);
  series(mon.running_timeline(), true);
  values(mon.efficiency_timeline());
  values(mon.setup_time_timeline());
  values(mon.stageout_time_timeline());
  series(m.analysis_done, false);
  series(m.merge_done, false);
  d.add(static_cast<double>(m.failure_events.size()));
  for (const auto& [t, code] : m.failure_events) {
    d.add(t);
    d.add(static_cast<double>(code));
  }
  return d.hex();
}

// The traced run's file: its line count and a hash of every line except the
// kernel's own event count, which measures the simulator, not the model.
void append_trace_lines(const std::string& tag, const std::string& path,
                        std::vector<std::string>& lines) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::size_t count = 0;
  Fnv d;
  for (std::string line; std::getline(in, line);) {
    ++count;
    if (line.find("\"des.kernel.events_dispatched\"") == std::string::npos)
      d.add(line);
  }
  lines.push_back(tag + "lines = " + std::to_string(count));
  lines.push_back(tag + "hash = " + d.hex());
}

std::vector<std::string> snapshot_lines() {
  Campaign campaign(2);
  campaign.keep_metrics(true);
  for (auto kind : {AvailabilityKind::Weibull, AvailabilityKind::Diurnal})
    campaign.add_seed_sweep(golden_spec(kind), {2015, 2016, 2017, 2018});
  // The lifetime-aware sizer queries the availability model at every pull,
  // so pin it too: drift in expected_lifetime() or in the sizing math shows
  // up here even if the fixed-size policies are untouched.
  RunSpec lifetime = golden_spec(AvailabilityKind::Weibull);
  lifetime.label = "weibull-lifetime";
  lifetime.workload.dispatch = DispatchMode::Lifetime;
  campaign.add_seed_sweep(lifetime, {2015, 2016, 2017, 2018});
  // fig09-mini: the Figure 9 regime at golden scale — streaming analysis
  // over a deliberately undersized campus uplink (heavily oversubscribed,
  // so the max-min water-filling runs on every dispatch wave) with a
  // transient wide-area outage mid-run (capacity -> 0 and back, broken
  // streams, failed opens).  Pins the BandwidthLink allocation bit-for-bit:
  // any drift in fair-share arithmetic, completion epsilons, or completion
  // *ordering* surfaces here as a per-line diff.
  RunSpec fig09 = golden_spec(AvailabilityKind::Weibull);
  fig09.label = "fig09-stream";
  fig09.cluster.federation.campus_uplink_rate = util::gbit_per_s(1);
  fig09.cluster.federation.per_stream_rate = 3.0e7;
  fig09.workload.tasklet_input_bytes = 390e6;
  fig09.workload.read_fraction = 0.28;
  fig09.outage_start = 1800.0;
  fig09.outage_duration = 600.0;
  campaign.add_seed_sweep(fig09, {2015, 2016, 2017, 2018});
  // Per-site pools: static shares, and stealing with its attempt count.
  campaign.add_seed_sweep(fleet_spec(DispatchMode::Partitioned), {2015, 2016});
  campaign.add_seed_sweep(fleet_spec(DispatchMode::Stealing), {2015, 2016});
  // The advisor's dispatch-share gate over the fig09 outage.  Seed 2016
  // drains and restores the share, so it is the traced run.
  RunSpec advised = fig09;
  advised.label = "fig09-stream-advisor";
  advised.advisor.enabled = true;
  advised.seed = 2015;
  campaign.add(advised);
  const std::string trace_path =
      ::testing::TempDir() + "lobster_golden_trace.jsonl";
  advised.seed = 2016;
  advised.trace_path = trace_path;
  campaign.add(advised);
  // The share gate under fig11's cold-cache squid storm, at perfbench
  // mcsim's smallest scale: the advisor throttles and restores at its
  // ticks while long MC tasks keep completions sparse.
  RunSpec storm;
  storm.label = "mcsim-advisor";
  const SimulationRunScenario mc = simulation_run_scenario();
  storm.cluster = mc.cluster;
  storm.workload = mc.workload;
  const double f = 80.0 / static_cast<double>(storm.cluster.target_cores);
  storm.cluster.target_cores = 80;
  storm.cluster.federation.campus_uplink_rate *= f;
  storm.cluster.squid.service_rate *= f;
  storm.cluster.squid.upstream_rate *= f;
  storm.cluster.squid.max_connections = 32;
  storm.cluster.chirp.nic_rate *= f;
  storm.workload.num_tasklets = 200;
  storm.time_cap = 10.0 * 86400.0;
  storm.advisor.enabled = true;
  campaign.add_seed_sweep(storm, {2015, 2016});
  // The same storm with a dedicated cloud stealing from the campus: a pull
  // the share gate denies makes no steal attempt, so the attempt count
  // pins when each gate opened, at ticks and task ends alike.
  RunSpec stolen = storm;
  stolen.label = "mcsim-advisor-stealing";
  stolen.workload.dispatch = DispatchMode::Stealing;
  SiteParams cloud;
  cloud.name = "cloud";
  cloud.target_cores = 16;
  cloud.ramp_seconds = 60.0;
  cloud.evictions = false;
  cloud.squid = storm.cluster.squid;
  stolen.cluster.extra_sites = {cloud};
  campaign.add_seed_sweep(stolen, {2015, 2016});
  // Hadoop merging: done only when the reducers inside the storage cluster
  // finish, not when the last analysis task does.
  RunSpec hadoop = golden_spec(AvailabilityKind::Weibull);
  hadoop.label = "hadoop";
  hadoop.workload.merge_mode = core::MergeMode::Hadoop;
  campaign.add_seed_sweep(hadoop, {2015, 2016});
  // Truncated by the time cap mid-workflow (completed = false).
  RunSpec capped = golden_spec(AvailabilityKind::Weibull);
  capped.label = "capped";
  capped.time_cap = 7200.0;
  campaign.add_seed_sweep(capped, {2015});
  campaign.run();

  std::vector<std::string> lines;
  for (const auto& r : campaign.results()) {
    EXPECT_TRUE(r.ok()) << r.error;
    if (!r.ok()) continue;
    const std::string tag = r.label + "/" + std::to_string(r.seed) + " ";
    const auto& s = r.stats;
    auto field = [&](const char* name, const std::string& value) {
      lines.push_back(tag + name + " = " + value);
    };
    auto count = [&](const char* name, std::uint64_t value) {
      field(name, std::to_string(value));
    };
    field("makespan", num(s.makespan));
    field("last_analysis_finish", num(s.last_analysis_finish));
    field("last_merge_finish", num(s.last_merge_finish));
    field("bytes_streamed", num(s.bytes_streamed));
    field("bytes_staged", num(s.bytes_staged));
    field("bytes_staged_out", num(s.bytes_staged_out));
    count("tasks_completed", s.tasks_completed);
    count("tasks_failed", s.tasks_failed);
    count("tasks_evicted", s.tasks_evicted);
    count("merge_tasks_completed", s.merge_tasks_completed);
    count("tasklets_processed", s.tasklets_processed);
    count("tasklets_retried", s.tasklets_retried);
    count("steal_attempts", s.steal_attempts);
    count("steal_tasks", s.steal_tasks);
    field("steal_bytes_penalty", num(s.steal_bytes_penalty));
    count("advisor_ticks", s.advisor_ticks);
    count("advisor_shrinks", s.advisor_shrinks);
    count("advisor_throttles", s.advisor_throttles);
    count("advisor_drains", s.advisor_drains);
    count("advisor_restores", s.advisor_restores);
    count("peak_running", s.peak_running);
    field("completed", s.completed ? "true" : "false");
    field("breakdown.cpu", num(s.breakdown.cpu));
    field("breakdown.io", num(s.breakdown.io));
    field("breakdown.failed", num(s.breakdown.failed));
    field("breakdown.hard_failed", num(s.breakdown.hard_failed));
    field("breakdown.stage_in", num(s.breakdown.stage_in));
    field("breakdown.stage_out", num(s.breakdown.stage_out));
    field("breakdown.other", num(s.breakdown.other));
    EXPECT_NE(r.metrics, nullptr);
    if (r.metrics) field("timelines", timeline_digest(*r.metrics));
  }
  append_trace_lines("trace/fig09-stream-advisor/2016 ", trace_path, lines);
  std::remove(trace_path.c_str());
  return lines;
}

std::vector<std::string> read_lines(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(GoldenMetrics, AvailabilityCampaignMatchesSnapshot) {
  const auto current = snapshot_lines();
  ASSERT_FALSE(current.empty());

  if (std::getenv("LOBSTER_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(kGoldenPath, "w");
    ASSERT_NE(f, nullptr) << "cannot write " << kGoldenPath;
    std::fputs(
        "# Golden metrics: weibull + diurnal climates (fifo dispatch), a\n"
        "# weibull lifetime-dispatch sweep, and the fig09-stream saturated-\n"
        "# uplink + outage sweep, seeds 2015-2018; partitioned and stealing\n"
        "# on a three-site fleet, fig09-stream and a scaled mcsim squid\n"
        "# storm (fifo, and stealing with a cloud) with the advisor, and\n"
        "# hadoop merging, seeds 2015-2016; one time-capped run.  Every\n"
        "# RunStats field, a timeline digest per run, and one traced run's\n"
        "# line count and hash.\n"
        "# Regenerate with LOBSTER_UPDATE_GOLDEN=1 (see "
        "golden_metrics_test.cpp).\n",
        f);
    for (const auto& line : current) {
      std::fputs(line.c_str(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  const auto expected = read_lines(kGoldenPath);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << kGoldenPath
      << " — run once with LOBSTER_UPDATE_GOLDEN=1 and commit it";

  // Per-line comparison: a drifted metric names itself in the failure.
  std::size_t mismatches = 0;
  const std::size_t n = std::min(expected.size(), current.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] == current[i]) continue;
    ++mismatches;
    ADD_FAILURE() << "golden line " << i + 1 << " drifted:\n"
                  << "  expected: " << expected[i] << "\n"
                  << "  actual:   " << current[i];
    if (mismatches >= 10) {
      ADD_FAILURE() << "(further mismatches suppressed)";
      break;
    }
  }
  EXPECT_EQ(expected.size(), current.size())
      << "golden file has " << expected.size() << " lines, snapshot has "
      << current.size();
  if (mismatches > 0)
    ADD_FAILURE()
        << "deterministic metrics drifted from " << kGoldenPath
        << "; if the change is intentional, regenerate with "
           "LOBSTER_UPDATE_GOLDEN=1 and commit the new golden file";
}

// The stationary weibull climate is the amplitude-0 diurnal climate, so the
// whole engine run must agree, not just the draws.
TEST(GoldenMetrics, WeibullRunEqualsZeroAmplitudeDiurnal) {
  Campaign campaign(2);
  RunSpec flat = golden_spec(AvailabilityKind::Diurnal);
  flat.cluster.availability.diurnal_amplitude = 0.0;
  campaign.add_seed_sweep(golden_spec(AvailabilityKind::Weibull),
                          {2015, 2016});
  campaign.add_seed_sweep(flat, {2015, 2016});
  campaign.run();
  const auto& r = campaign.results();
  ASSERT_EQ(r.size(), 4u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(r[i].ok() && r[i + 2].ok());
    EXPECT_GT(r[i].stats.tasks_evicted, 0u);
    EXPECT_TRUE(r[i].stats == r[i + 2].stats) << "seed " << r[i].seed;
  }
}

}  // namespace
}  // namespace lobster::lobsim
