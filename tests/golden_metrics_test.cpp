// Golden-metrics regression harness: a fixed campaign (four seeds through
// the weibull and diurnal climates) is snapshotted field by field against a
// checked-in expectation file.  Any drift in the engine's deterministic
// output — an RNG stream reordered, a metric counted differently, a model
// subtly changed — fails with a readable per-line diff instead of passing
// silently.
//
// To regenerate after an *intentional* behaviour change:
//
//   LOBSTER_UPDATE_GOLDEN=1 ./build/tests/golden_metrics_test
//
// and commit the rewritten tests/golden/availability_golden.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lobsim/campaign.hpp"
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

// %.17g round-trips doubles exactly: the golden file pins bit-for-bit
// behaviour, not a tolerance band.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> snapshot_lines() {
  Campaign campaign(2);
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
    field("makespan", num(s.makespan));
    field("last_analysis_finish", num(s.last_analysis_finish));
    field("last_merge_finish", num(s.last_merge_finish));
    field("bytes_streamed", num(s.bytes_streamed));
    field("bytes_staged", num(s.bytes_staged));
    field("bytes_staged_out", num(s.bytes_staged_out));
    field("tasks_completed", std::to_string(s.tasks_completed));
    field("tasks_failed", std::to_string(s.tasks_failed));
    field("tasks_evicted", std::to_string(s.tasks_evicted));
    field("merge_tasks_completed", std::to_string(s.merge_tasks_completed));
    field("tasklets_processed", std::to_string(s.tasklets_processed));
    field("tasklets_retried", std::to_string(s.tasklets_retried));
    field("peak_running", std::to_string(s.peak_running));
    field("completed", s.completed ? "true" : "false");
    field("breakdown.cpu", num(s.breakdown.cpu));
    field("breakdown.io", num(s.breakdown.io));
    field("breakdown.failed", num(s.breakdown.failed));
    field("breakdown.stage_in", num(s.breakdown.stage_in));
    field("breakdown.stage_out", num(s.breakdown.stage_out));
  }
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
        "# uplink + outage sweep, seeds 2015-2018.\n"
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
