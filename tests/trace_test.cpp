// Tests for the structured tracing layer (util/trace): sink round trips,
// structural validation, the counter plane, trace replay into TaskRecords,
// and the engine-level determinism contract — a traced run must produce the
// same trace bytes no matter which campaign thread executed it, and the
// trace must reconstruct the Figure 8 breakdown exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "core/trace_replay.hpp"
#include "lobsim/campaign.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

namespace util = lobster::util;
namespace core = lobster::core;
namespace lobsim = lobster::lobsim;

namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lobster_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

lobsim::RunSpec tiny_spec(std::uint64_t seed = 2015) {
  lobsim::RunSpec spec;
  spec.label = "traced";
  spec.seed = seed;
  spec.cluster.target_cores = 32;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.workload.num_tasklets = 120;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.time_cap = 10.0 * 86400.0;
  spec.metric_bin_seconds = 3600.0;
  return spec;
}

// A two-site stealing run with the advisor on.  A slow squid makes the
// advisor throttle, a WAN outage makes it drain, and the seed and sizes
// are picked so that all fourteen counts RunStats takes from the counter
// plane are non-zero and pairwise distinct.
lobsim::RunSpec stealing_advisor_spec() {
  lobsim::RunSpec spec;
  spec.label = "stealing-advisor";
  spec.seed = 2020;
  spec.cluster.target_cores = 64;
  spec.cluster.cores_per_worker = 8;
  spec.cluster.ramp_seconds = 60.0;
  spec.cluster.evictions = true;
  spec.cluster.squid.service_rate *= 0.02;
  spec.cluster.squid.upstream_rate *= 0.02;
  spec.cluster.federation.campus_uplink_rate = util::gbit_per_s(1);
  spec.cluster.federation.per_stream_rate = 3.0e7;
  lobsim::SiteParams cloud;
  cloud.name = "cloud";
  cloud.target_cores = 16;
  cloud.ramp_seconds = 60.0;
  cloud.evictions = false;
  cloud.squid = spec.cluster.squid;
  spec.cluster.extra_sites = {cloud};
  spec.workload.num_tasklets = 300;
  spec.workload.tasklets_per_task = 6;
  spec.workload.tasklet_cpu_mean = 600.0;
  spec.workload.tasklet_cpu_sigma = 120.0;
  spec.workload.tasklet_input_bytes = 390e6;
  spec.workload.read_fraction = 0.28;
  spec.workload.merge_policy.target_bytes = 1e9;
  spec.workload.dispatch = lobsim::DispatchMode::Stealing;
  spec.outage_start = 1800.0;
  spec.outage_duration = 600.0;
  spec.advisor.enabled = true;
  spec.time_cap = 10.0 * 86400.0;
  return spec;
}

}  // namespace

// ------------------------------------------------------------ format names ----

TEST(TraceFormat, NamesAndExtensionsRoundTrip) {
  EXPECT_STREQ(util::to_string(util::TraceFormat::Jsonl), "jsonl");
  EXPECT_STREQ(util::to_string(util::TraceFormat::Chrome), "chrome");
  EXPECT_STREQ(util::trace_extension(util::TraceFormat::Jsonl), ".jsonl");
  EXPECT_STREQ(util::trace_extension(util::TraceFormat::Chrome), ".json");
  EXPECT_EQ(util::parse_trace_format("jsonl"), util::TraceFormat::Jsonl);
  EXPECT_EQ(util::parse_trace_format("chrome"), util::TraceFormat::Chrome);
  EXPECT_THROW(util::parse_trace_format("perfetto"), std::invalid_argument);
}

// ------------------------------------------------------------- JSONL sink ----

TEST(JsonlSink, EventsRoundTripThroughParser) {
  util::JsonlTraceSink sink("");
  sink.begin("task", "analysis", 7, 1.5);
  sink.end("task", "analysis", 7, 2.5, {{"cpu", 0.75}, {"exit", 0.0}});
  sink.instant("lobsim", "task_failed", 0, 3.0, {{"exit", 211.0}});
  sink.counter("lobsim.engine.tasks_completed", 4.0, 42.0);
  sink.close();

  const auto events = util::parse_trace_jsonl(sink.buffer());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].cat, "task");
  EXPECT_EQ(events[0].name, "analysis");
  EXPECT_EQ(events[0].track, 7u);
  EXPECT_EQ(events[0].t, 1.5);
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[1].arg("cpu", -1.0), 0.75);
  EXPECT_EQ(events[1].arg("exit", -1.0), 0.0);
  EXPECT_EQ(events[1].arg("missing", -1.0), -1.0);
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[2].arg("exit"), 211.0);
  EXPECT_EQ(events[3].phase, 'C');
  EXPECT_EQ(events[3].name, "lobsim.engine.tasks_completed");
  EXPECT_EQ(events[3].value, 42.0);
  EXPECT_TRUE(util::validate_trace(events).empty());
}

TEST(JsonlSink, DoublesSurviveExactly) {
  util::JsonlTraceSink sink("");
  const double awkward = 0.1 + 0.2;  // not representable prettily
  sink.counter("x", awkward, 1.0 / 3.0);
  sink.close();
  const auto events = util::parse_trace_jsonl(sink.buffer());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, awkward);       // bitwise, thanks to %.17g
  EXPECT_EQ(events[0].value, 1.0 / 3.0);
}

TEST(JsonlSink, EscapesQuotesAndBackslashes) {
  util::JsonlTraceSink sink("");
  sink.begin("cat\"x", "na\\me", 0, 0.0);
  sink.end("cat\"x", "na\\me", 0, 1.0, {});
  sink.close();
  const auto events = util::parse_trace_jsonl(sink.buffer());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cat, "cat\"x");
  EXPECT_EQ(events[0].name, "na\\me");
  EXPECT_TRUE(util::validate_trace(events).empty());
}

TEST(JsonlSink, ParserRejectsGarbage) {
  EXPECT_THROW(util::parse_trace_jsonl("not json\n"), std::runtime_error);
  EXPECT_THROW(util::parse_trace_jsonl("{\"ev\":\"B\",\"t\":}\n"),
               std::runtime_error);
  EXPECT_THROW(util::read_trace_jsonl("/nonexistent/trace.jsonl"),
               std::runtime_error);
}

// ------------------------------------------------------------ Chrome sink ----

TEST(ChromeSink, ProducesTraceEventArray) {
  util::ChromeTraceSink sink("");
  sink.begin("task", "analysis", 3, 1.0);
  sink.end("task", "analysis", 3, 2.0, {{"cpu", 1.5}});
  sink.instant("xrootd", "outage_begin", 0, 2.5, {});
  sink.counter("lobsim.engine.running_tasks", 3.0, 17.0);
  sink.close();

  const std::string& buf = sink.buffer();
  EXPECT_EQ(buf.rfind("{\"traceEvents\":[", 0), 0u) << buf;
  EXPECT_NE(buf.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"C\""), std::string::npos);
  // Microsecond timestamps: 1.0 s -> 1e6 us.
  EXPECT_NE(buf.find("\"ts\":1000000"), std::string::npos);
  // Balanced JSON tail.
  ASSERT_GE(buf.size(), 3u);
  EXPECT_EQ(buf.substr(buf.size() - 3), "]}\n")
      << "tail: " << buf.substr(buf.size() - 8);
}

// -------------------------------------------------------------- validation ----

TEST(Validate, RejectsDecreasingTimestamps) {
  util::JsonlTraceSink sink("");
  sink.instant("a", "x", 0, 2.0, {});
  sink.instant("a", "y", 0, 1.0, {});
  sink.close();
  const auto events = util::parse_trace_jsonl(sink.buffer());
  EXPECT_FALSE(util::validate_trace(events).empty());
}

TEST(Validate, RejectsNegativeTimestamps) {
  util::JsonlTraceSink sink("");
  sink.instant("a", "x", 0, -1.0, {});
  sink.close();
  EXPECT_FALSE(
      util::validate_trace(util::parse_trace_jsonl(sink.buffer())).empty());
}

TEST(Validate, RejectsUnbalancedSpans) {
  util::JsonlTraceSink sink("");
  sink.begin("task", "analysis", 1, 1.0);
  sink.close();
  const std::string problem =
      util::validate_trace(util::parse_trace_jsonl(sink.buffer()));
  EXPECT_NE(problem.find("never ended"), std::string::npos) << problem;
}

TEST(Validate, RejectsEndWithoutBegin) {
  util::JsonlTraceSink sink("");
  sink.end("task", "analysis", 1, 1.0, {});
  sink.close();
  EXPECT_FALSE(
      util::validate_trace(util::parse_trace_jsonl(sink.buffer())).empty());
}

TEST(Validate, RejectsMismatchedSpanNames) {
  util::JsonlTraceSink sink("");
  sink.begin("task", "analysis", 1, 1.0);
  sink.end("task", "merge", 1, 2.0, {});
  sink.close();
  EXPECT_FALSE(
      util::validate_trace(util::parse_trace_jsonl(sink.buffer())).empty());
}

TEST(Validate, AcceptsNestedAndInterleavedTracks) {
  util::JsonlTraceSink sink("");
  sink.begin("task", "analysis", 1, 1.0);
  sink.begin("segment", "execute", 1, 1.5);  // nested on the same track
  sink.begin("task", "merge", 2, 1.7);       // concurrent on another track
  sink.end("segment", "execute", 1, 2.0, {});
  sink.end("task", "merge", 2, 2.5, {});
  sink.end("task", "analysis", 1, 3.0, {});
  sink.close();
  EXPECT_TRUE(
      util::validate_trace(util::parse_trace_jsonl(sink.buffer())).empty());
}

// ----------------------------------------------------------- counter plane ----

TEST(CounterPlane, FindOrCreateReturnsStableRefs) {
  util::CounterRegistry reg;
  util::Counter& a = reg.counter("cvmfs.squid.requests");
  util::Counter& b = reg.counter("cvmfs.squid.requests");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  util::Gauge& g = reg.gauge("chirp.sim.bytes_in");
  g.add(1.5);
  g.add(2.5);
  EXPECT_EQ(reg.gauge("chirp.sim.bytes_in").value(), 4.0);
}

TEST(CounterPlane, SnapshotIsNameOrdered) {
  util::CounterRegistry reg;
  reg.counter("z.last").add(1);
  reg.gauge("m.middle").set(2.0);
  reg.counter("a.first").add(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].value, 3.0);
  EXPECT_FALSE(snap[0].is_gauge);
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_TRUE(snap[1].is_gauge);
  EXPECT_EQ(snap[2].name, "z.last");
}

// -------------------------------------------------------------- trace replay ----

TEST(TraceReplay, RebuildsRecordsFromEndEventArgs) {
  util::JsonlTraceSink sink("");
  sink.begin("task", "analysis", 9, 10.0);
  sink.end("task", "analysis", 9, 110.0,
           {{"status", 2.0},
            {"exit", 0.0},
            {"tasklets", 6.0},
            {"cpu", 80.0},
            {"lost", 0.0},
            {"execute", 90.0},
            {"execute_io", 5.0},
            {"stage_in", 3.0},
            {"stage_out", 2.0}});
  // A reducer span carries no status and must not become a record.
  sink.begin("task", "hadoop_reduce", 1 << 20, 120.0);
  sink.end("task", "hadoop_reduce", 1 << 20, 130.0, {{"bytes", 1e9}});
  sink.counter("lobsim.engine.tasks_completed", 130.0, 1.0);
  sink.close();

  const auto replay =
      core::replay_trace(util::parse_trace_jsonl(sink.buffer()));
  ASSERT_EQ(replay.records.size(), 1u);
  const core::TaskRecord& rec = replay.records[0];
  EXPECT_EQ(rec.status, core::TaskStatus::Done);
  EXPECT_EQ(rec.kind, core::TaskKind::Analysis);
  EXPECT_EQ(rec.submit_time, 10.0);
  EXPECT_EQ(rec.finish_time, 110.0);
  EXPECT_EQ(rec.cpu_time, 80.0);
  EXPECT_EQ(rec.tasklets.size(), 6u);
  EXPECT_EQ(
      rec.segment_time[static_cast<std::size_t>(core::Segment::Execute)],
      90.0);
  EXPECT_EQ(
      rec.segment_time[static_cast<std::size_t>(core::Segment::ExecuteIo)],
      5.0);
  ASSERT_EQ(replay.final_counters.size(), 1u);
  EXPECT_EQ(replay.final_counters[0].first, "lobsim.engine.tasks_completed");
  EXPECT_EQ(replay.open_spans, 0u);
}

// ---------------------------------------------------------- engine contract ----

TEST(EngineTrace, TracedRunIsValidAndReconstructsBreakdownExactly) {
  const std::string path = temp_path("engine_trace.jsonl");
  lobsim::RunSpec spec = stealing_advisor_spec();
  spec.trace_path = path;
  std::shared_ptr<const lobsim::EngineMetrics> metrics;
  const lobsim::RunStats stats = lobsim::Campaign::execute(spec, &metrics);
  ASSERT_TRUE(metrics);
  ASSERT_TRUE(stats.completed);

  const auto events = util::read_trace_jsonl(path);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(util::validate_trace(events).empty())
      << util::validate_trace(events);

  // The end-event payloads carry the authoritative TaskRecord numbers, so
  // replaying them through a fresh Monitor reproduces the engine's own
  // Figure 8 breakdown bit for bit (same values, same fold order).
  const core::TraceReplay replay = core::replay_trace(events);
  EXPECT_EQ(replay.records.size(),
            stats.tasks_completed + stats.tasks_failed + stats.tasks_evicted +
                stats.merge_tasks_completed);
  core::Monitor monitor(spec.metric_bin_seconds);
  for (const auto& rec : replay.records) monitor.on_task_finished(rec);
  const core::RuntimeBreakdown a = monitor.breakdown();
  const core::RuntimeBreakdown b = metrics->monitor.breakdown();
  EXPECT_EQ(a.cpu, b.cpu);
  EXPECT_EQ(a.io, b.io);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.stage_in, b.stage_in);
  EXPECT_EQ(a.stage_out, b.stage_out);
  EXPECT_EQ(a.other, b.other);

  // The final counter plane agrees with every count the engine reported.
  const std::map<std::string, double> plane(replay.final_counters.begin(),
                                            replay.final_counters.end());
  auto final_value = [&plane](const std::string& name) {
    const auto it = plane.find(name);
    return it == plane.end() ? -1.0 : it->second;
  };

  const std::vector<std::pair<std::string, double>> counts = {
      {"lobsim.engine.tasks_completed", double(stats.tasks_completed)},
      {"lobsim.engine.tasks_failed", double(stats.tasks_failed)},
      {"lobsim.engine.tasks_evicted", double(stats.tasks_evicted)},
      {"lobsim.engine.merge_tasks_completed",
       double(stats.merge_tasks_completed)},
      {"lobsim.engine.tasklets_processed", double(stats.tasklets_processed)},
      {"lobsim.engine.tasklets_retried", double(stats.tasklets_retried)},
      {"lobsim.steal.attempts", double(stats.steal_attempts)},
      {"lobsim.steal.tasks", double(stats.steal_tasks)},
      {"lobsim.steal.bytes_penalty", stats.steal_bytes_penalty},
      {"lobsim.advisor.ticks", double(stats.advisor_ticks)},
      {"lobsim.advisor.shrinks", double(stats.advisor_shrinks)},
      {"lobsim.advisor.throttles", double(stats.advisor_throttles)},
      {"lobsim.advisor.drains", double(stats.advisor_drains)},
      {"lobsim.advisor.restores", double(stats.advisor_restores)},
  };
  std::set<double> distinct;
  for (const auto& [name, value] : counts) {
    EXPECT_EQ(final_value(name), value) << name;
    EXPECT_GT(value, 0.0) << name;
    distinct.insert(value);
  }
  EXPECT_EQ(distinct.size(), counts.size())
      << "two counts are equal, so a swap between them would pass";
  EXPECT_GT(final_value("des.kernel.events_dispatched"), 0.0);
  std::remove(path.c_str());
}

TEST(EngineTrace, TracingDoesNotPerturbTheSimulation) {
  lobsim::RunSpec plain = tiny_spec();
  lobsim::RunSpec traced = tiny_spec();
  traced.trace_path = temp_path("perturb_check.jsonl");
  const lobsim::RunStats a = lobsim::Campaign::execute(plain);
  const lobsim::RunStats b = lobsim::Campaign::execute(traced);
  EXPECT_EQ(a, b);
  std::remove(traced.trace_path.c_str());
}

TEST(EngineTrace, ChromeExportIsStructurallySound) {
  const std::string path = temp_path("engine_trace.json");
  lobsim::RunSpec spec = tiny_spec();
  spec.trace_path = path;
  spec.trace_format = util::TraceFormat::Chrome;
  lobsim::Campaign::execute(spec);
  const std::string buf = slurp(path);
  EXPECT_EQ(buf.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(buf.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(buf.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(buf.find("\"name\":\"analysis\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EngineTrace, SerialAndParallelCampaignTracesAreBitwiseIdentical) {
  std::vector<std::uint64_t> seeds = {2015, 2016, 2017, 2018};
  auto run_campaign = [&seeds](std::size_t jobs, const std::string& prefix) {
    lobsim::Campaign campaign(jobs);
    campaign.trace_to(prefix);
    campaign.add_seed_sweep(tiny_spec(), seeds);
    campaign.run();
    for (const auto& r : campaign.results()) ASSERT_TRUE(r.ok()) << r.error;
  };
  const std::string serial_prefix = temp_path("serial");
  const std::string parallel_prefix = temp_path("parallel");
  run_campaign(1, serial_prefix);
  run_campaign(4, parallel_prefix);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::string suffix = "-run" + std::to_string(i) + "-seed" +
                               std::to_string(seeds[i]) + ".jsonl";
    const std::string sp = serial_prefix + suffix;
    const std::string pp = parallel_prefix + suffix;
    const std::string sa = slurp(sp);
    const std::string pa = slurp(pp);
    EXPECT_FALSE(sa.empty());
    EXPECT_EQ(sa, pa) << "trace for run " << i
                      << " differs between serial and parallel campaigns";
    std::remove(sp.c_str());
    std::remove(pp.c_str());
  }
}
