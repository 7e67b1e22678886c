// perfbench — the simulator's end-to-end benchmark.
//
// Simulates a stream of figure-shaped member scenarios for a fixed host-time
// budget, checks every member's simulated outcome, and prints every metric
// by name with its unit.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads (README.md gives the rationale for each):
//   dataproc  the Fig 8/10 data-processing run, scaled by core count
//   mcsim     the Fig 11 Monte Carlo run, scaled by core count
//   ramp      the Fig 16 multi-path ramp in collapse mode, built here from
//             FederationSim's public API so phases are our run_until calls
//
// --trace 0 times untraced members and reports the end-to-end metrics.
// --trace 1 runs every member untraced and then traced; the traced run
// installs a benchmark-owned TraceSink that stamps host time on every
// record, and the run reports the per-layer metrics plus the tracing
// overhead.
//
// Only public entry points are called: the *_scenario() functions,
// lobsim::Engine, des::Simulation, xrootd::FederationSim,
// util::Tracer::set_sink and util::CounterRegistry::snapshot.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "des/simulation.hpp"
#include "lobsim/engine.hpp"
#include "lobsim/scenarios.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"
#include "xrootd/federation.hpp"

namespace {

using namespace lobster;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test scale: every workload shrunk to well under a second.
  bool tiny = false;
  /// Where the first member's traced run writes its host-stamped records
  /// (none when empty).
  std::string trace_dir;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dataproc|mcsim|ramp [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--trace-dir DIR]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto number = [&](const std::string& s) {
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (s.empty() || *end != '\0' || !std::isfinite(v)) usage(argv[0]);
      return v;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string s = value();
      char* end = nullptr;
      o.seed = std::strtoull(s.c_str(), &end, 10);
      if (s.empty() || *end != '\0') usage(argv[0]);
    } else if (arg == "--seconds") {
      o.seconds = number(value());
      if (o.seconds <= 0.0) usage(argv[0]);
    } else if (arg == "--trace") {
      const std::string s = value();
      if (s != "0" && s != "1") usage(argv[0]);
      o.trace = s == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value();
    } else {
      usage(argv[0]);
    }
  }
  if (o.workload != "dataproc" && o.workload != "mcsim" &&
      o.workload != "ramp")
    usage(argv[0]);
  return o;
}

// ---------------------------------------------------------------------------
// Model digest: FNV-1a over the bit patterns of the simulated statistics, so
// "output byte-identical" is one comparison across commits.
// ---------------------------------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (double d : v) add(d);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Traced runs: a sink that stamps host time on every record
// ---------------------------------------------------------------------------

/// Engine workloads emit this counter once per 200 simulated seconds (the
/// gauge sampler); the host time between two of them is one slice.
constexpr const char* kSliceCounter = "lobsim.engine.running_tasks";

/// Benchmark-owned state the sink reports into.  It outlives the sink: the
/// Tracer destroys its sink on close().
struct Probe {
  /// Sampled at every slice mark (the Engine's campus uplink), or null.
  const des::BandwidthLink* link = nullptr;
  std::vector<double> slice_ms;   ///< host ms at each slice mark
  std::vector<double> slice_flows;  ///< link flows at each slice mark
  std::uint64_t records = 0;
  std::string path;  ///< JSONL destination written on close ("" = none)
};

class HostStampSink final : public util::TraceSink {
 public:
  HostStampSink(Probe& probe, Clock::time_point t0) : probe_(probe), t0_(t0) {}

  void begin(const char* cat, const char* name, std::uint64_t track,
             double t) override {
    add('B', cat, name, track, t, 0.0);
  }
  void end(const char* cat, const char* name, std::uint64_t track, double t,
           const std::vector<util::TraceArg>&) override {
    add('E', cat, name, track, t, 0.0);
  }
  void instant(const char* cat, const char* name, std::uint64_t track,
               double t, const std::vector<util::TraceArg>&) override {
    add('i', cat, name, track, t, 0.0);
  }
  void counter(const char* name, double t, double value) override {
    const double ms = add('C', "", name, 0, t, value);
    if (std::strcmp(name, kSliceCounter) != 0) return;
    probe_.slice_ms.push_back(ms);
    probe_.slice_flows.push_back(
        probe_.link ? static_cast<double>(probe_.link->active_flows()) : 0.0);
  }
  void close() override {
    if (closed_) return;
    closed_ = true;
    probe_.records = records_.size();
    if (probe_.path.empty()) return;
    std::FILE* f = std::fopen(probe_.path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", probe_.path.c_str());
      return;
    }
    for (const Record& r : records_)
      std::fprintf(f,
                   "{\"ev\":\"%c\",\"cat\":\"%s\",\"name\":\"%s\","
                   "\"track\":%llu,\"t\":%.17g,\"host_ms\":%.6f,"
                   "\"value\":%.17g}\n",
                   r.ev, r.cat.c_str(), r.name.c_str(),
                   static_cast<unsigned long long>(r.track), r.t, r.host_ms,
                   r.value);
    std::fclose(f);
  }

 private:
  struct Record {
    char ev;
    // Copies: some callers pass the c_str() of a temporary.
    std::string cat;
    std::string name;
    std::uint64_t track;
    double t;
    double host_ms;
    double value;
  };

  double add(char ev, const char* cat, const char* name, std::uint64_t track,
             double t, double value) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
    records_.push_back({ev, cat, name, track, t, ms, value});
    return ms;
  }

  Probe& probe_;
  Clock::time_point t0_;
  std::vector<Record> records_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// One member run's outcome
// ---------------------------------------------------------------------------

struct Rep {
  bool ok = false;
  std::string why;  ///< first failed check
  std::uint64_t digest = 0;
  double sim_end = 0.0;  ///< simulated seconds at the end of the run
  std::uint64_t events = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double report_s = 0.0;
  double teardown_s = 0.0;
  [[nodiscard]] double wall_s() const { return run_s + report_s + teardown_s; }
  /// Traced runs only: per-layer values by metric name, plus the
  /// host ms of each slice (pooled across members for percentiles).
  std::map<std::string, double> layer;
  std::vector<double> slices_ms;
};

double counter_value(const std::vector<util::CounterRegistry::Sample>& snap,
                     const char* name) {
  for (const auto& s : snap)
    if (s.name == name) return s.value;
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The link metrics from per-phase host ms and the flows active at each
/// phase's end: the slowest phase, and host ms per thousand flows overall.
void link_metrics(const std::vector<double>& phase_ms,
                  const std::vector<double>& phase_flows, double max_flows,
                  Rep& rep) {
  double max_ms = 0.0;
  double sum_ms = 0.0;
  double sum_kflows = 0.0;
  for (std::size_t i = 0; i < phase_ms.size(); ++i) {
    max_ms = std::max(max_ms, phase_ms[i]);
    sum_ms += phase_ms[i];
    sum_kflows += phase_flows[i] / 1000.0;
  }
  rep.layer["link.flows.max"] = max_flows;
  rep.layer["link.phase_ms.max"] = max_ms;
  rep.layer["link.phase_ms_per_kflow"] = ratio(sum_ms, sum_kflows);
}

// ---------------------------------------------------------------------------
// Engine workloads: dataproc (Fig 8/10) and mcsim (Fig 11)
// ---------------------------------------------------------------------------

struct EngineScenario {
  lobsim::ClusterParams cluster;
  lobsim::WorkloadParams workload;
  double outage_start = 0.0;
  double outage_duration = 0.0;
};

constexpr double kTimeCap = 10.0 * 86400.0;

/// fig10 --cores/--tasklets: the campus uplink and the squid's connection
/// budget scale with the core count so the same saturated-uplink physics
/// binds at a smaller size.
EngineScenario dataproc_scenario(bool tiny) {
  const std::size_t cores = tiny ? 80 : 400;
  const std::uint64_t tasklets = tiny ? 600 : 6000;
  auto s = lobsim::data_processing_scenario();
  const double f = static_cast<double>(cores) /
                   static_cast<double>(s.cluster.target_cores);
  s.cluster.target_cores = cores;
  s.cluster.federation.campus_uplink_rate *= f;
  s.cluster.squid.max_connections = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  s.workload.num_tasklets = tasklets;
  return {s.cluster, s.workload, s.outage_start, s.outage_duration};
}

/// fig11 --cores/--tasklets: squid, chirp and uplink rates scale with the
/// core count so the cold-cache squid storm and the stage-out waves bind;
/// the connect timeout stays fixed so the exit-174 trickle persists.
EngineScenario mcsim_scenario(bool tiny) {
  // Below ~260 cores the squid's 32-connection floor admits every worker
  // at once and the storm produces no connect timeouts.
  const std::size_t cores = tiny ? 80 : 320;
  const std::uint64_t tasklets = tiny ? 200 : 800;
  auto s = lobsim::simulation_run_scenario();
  const double f = static_cast<double>(cores) /
                   static_cast<double>(s.cluster.target_cores);
  s.cluster.target_cores = cores;
  s.cluster.federation.campus_uplink_rate *= f;
  s.cluster.squid.service_rate *= f;
  s.cluster.squid.upstream_rate *= f;
  s.cluster.squid.max_connections = std::max<std::int64_t>(
      32, static_cast<std::int64_t>(
              static_cast<double>(s.cluster.squid.max_connections) * f));
  s.cluster.chirp.nic_rate *= f;
  s.workload.num_tasklets = tasklets;
  return {s.cluster, s.workload, 0.0, 0.0};
}

/// What the figure benches pull out of the Monitor after the run: the
/// Figure 8 breakdown and every timeline Figures 10 and 11 plot.
struct FigureData {
  core::RuntimeBreakdown breakdown;
  std::vector<double> efficiency, setup, stageout, running, completed, failed;
};

FigureData extract_figure(const core::Monitor& mon) {
  FigureData f;
  f.breakdown = mon.breakdown();
  f.efficiency = mon.efficiency_timeline();
  f.setup = mon.setup_time_timeline();
  f.stageout = mon.stageout_time_timeline();
  const std::size_t bins =
      std::max({mon.completed_timeline().nbins(), mon.failed_timeline().nbins(),
                mon.running_timeline().nbins()});
  for (std::size_t b = 0; b < bins; ++b) {
    f.running.push_back(mon.running_timeline().mean_level(b));
    f.completed.push_back(mon.completed_timeline().sum(b));
    f.failed.push_back(mon.failed_timeline().sum(b));
  }
  return f;
}

/// Host µs per SiteManager::expected_remaining_lifetime call, sweeping `now`
/// over the run so every call reads a different point of the climate.
double lifetime_call_us(const lobsim::SiteManager& sites, double horizon) {
  constexpr int kBatch = 64;
  constexpr double kMinSeconds = 0.005;
  const auto t0 = Clock::now();
  double sink = 0.0;
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  do {
    for (int i = 0; i < kBatch; ++i, ++calls) {
      const double now = horizon * static_cast<double>(calls % 1024) / 1024.0;
      sink += sites.expected_remaining_lifetime(calls % sites.num_sites(), now);
    }
    elapsed = seconds_since(t0);
  } while (elapsed < kMinSeconds);
  // Keep the calls observable so the optimiser cannot drop them.
  volatile double keep = sink;
  (void)keep;
  return elapsed * 1e6 / static_cast<double>(calls);
}

Rep run_engine_rep(const EngineScenario& sc, std::uint64_t seed, bool traced,
                   const std::string& trace_file) {
  Rep rep;
  const auto t_setup = Clock::now();
  auto engine =
      std::make_unique<lobsim::Engine>(sc.cluster, sc.workload, seed);
  if (sc.outage_duration > 0.0)
    engine->schedule_outage(sc.outage_start, sc.outage_duration);
  rep.setup_s = seconds_since(t_setup);

  Probe probe;
  if (traced) {
    probe.link = &engine->federation().uplink();
    probe.path = trace_file;
    engine->sim().tracer().set_sink(
        std::make_unique<HostStampSink>(probe, Clock::now()));
  }

  const auto t_run = Clock::now();
  const lobsim::EngineMetrics& m = engine->run(kTimeCap);
  rep.run_s = seconds_since(t_run);

  const auto t_report = Clock::now();
  const FigureData fig = extract_figure(m.monitor);
  rep.report_s = seconds_since(t_report);

  // ---- outcome check and model digest (not timed) ----
  const auto snap = engine->sim().counters().snapshot();
  const auto dispatched = static_cast<std::uint64_t>(
      counter_value(snap, "lobsim.engine.tasks_dispatched"));
  const std::uint64_t settled = m.tasks_completed + m.merge_tasks_completed +
                                m.tasks_failed + m.tasks_evicted;
  if (!m.completed)
    rep.why = "run hit the time cap";
  else if (m.tasklets_processed != sc.workload.num_tasklets)
    rep.why = "processed " + std::to_string(m.tasklets_processed) + " of " +
              std::to_string(sc.workload.num_tasklets) + " tasklets";
  else if (dispatched != settled)
    rep.why = "task ledger: dispatched " + std::to_string(dispatched) +
              " != completed+merged+failed+evicted " + std::to_string(settled);
  rep.ok = rep.why.empty();

  const double squid_timeouts = counter_value(snap, "cvmfs.squid.timeouts");
  Digest d;
  d.add(m.makespan);
  d.add(m.tasks_completed);
  d.add(m.tasks_failed);
  d.add(m.tasks_evicted);
  d.add(m.merge_tasks_completed);
  d.add(m.tasklets_processed);
  d.add(m.tasklets_retried);
  d.add(static_cast<std::uint64_t>(m.peak_running));
  d.add(m.bytes_streamed);
  d.add(m.bytes_staged);
  d.add(m.bytes_staged_out);
  d.add(squid_timeouts);
  rep.sim_end = m.makespan;
  rep.events = engine->sim().events_executed();
  const core::RuntimeBreakdown& b = fig.breakdown;
  for (double v : {b.cpu, b.io, b.failed, b.hard_failed, b.stage_in,
                   b.stage_out, b.other})
    d.add(v);
  for (const auto* series : {&fig.efficiency, &fig.setup, &fig.stageout,
                             &fig.running, &fig.completed, &fig.failed})
    d.add(*series);
  rep.digest = d.value();

  if (traced) {
    auto& L = rep.layer;
    const double events = static_cast<double>(engine->sim().events_executed());
    L["des.events"] = events;
    L["des.events_per_s"] = ratio(events, rep.run_s);
    // A slice is the gap between two marks; its flows are the later mark's.
    std::vector<double> flows;
    for (std::size_t i = 1; i < probe.slice_ms.size(); ++i) {
      rep.slices_ms.push_back(probe.slice_ms[i] - probe.slice_ms[i - 1]);
      flows.push_back(probe.slice_flows[i]);
    }
    const double max_flows =
        probe.slice_flows.empty()
            ? 0.0
            : *std::max_element(probe.slice_flows.begin(),
                                probe.slice_flows.end());
    link_metrics(rep.slices_ms, flows, max_flows, rep);
    L["lobsim.lifetime_call_us"] =
        lifetime_call_us(engine->site_manager(), m.makespan);
    const double processed =
        counter_value(snap, "lobsim.engine.tasklets_processed");
    const double retried =
        counter_value(snap, "lobsim.engine.tasklets_retried");
    L["lobsim.tasks_dispatched"] = static_cast<double>(dispatched);
    L["lobsim.tasklets_retried"] = retried;
    L["lobsim.tasklet_yield"] = ratio(processed, processed + retried);
    const double hits = counter_value(snap, "cvmfs.squid.hits");
    L["cvmfs.squid.requests"] = counter_value(snap, "cvmfs.squid.requests");
    L["cvmfs.squid.timeouts"] = squid_timeouts;
    L["cvmfs.squid.hit_ratio"] =
        ratio(hits, hits + counter_value(snap, "cvmfs.squid.misses"));
    L["chirp.sim.puts"] = counter_value(snap, "chirp.sim.puts");
    L["chirp.sim.bytes_in"] = counter_value(snap, "chirp.sim.bytes_in");
    L["xrootd.federation.streams"] =
        counter_value(snap, "xrootd.federation.streams");
    L["xrootd.federation.failed_opens"] =
        counter_value(snap, "xrootd.federation.failed_opens");
    L["core.wait.env_setup_h"] = b.other / 3600.0;
    L["core.wait.stage_in_h"] = b.stage_in / 3600.0;
    L["core.wait.io_h"] = b.io / 3600.0;
    L["core.wait.stage_out_h"] = b.stage_out / 3600.0;
    L["core.wait.failed_h"] = b.failed / 3600.0;
    L["util.trace.records"] = static_cast<double>(probe.records);
    L["core.report_s"] = rep.report_s;
  }

  const auto t_teardown = Clock::now();
  engine.reset();
  rep.teardown_s = seconds_since(t_teardown);
  if (traced) rep.layer["lobsim.teardown_s"] = rep.teardown_s;
  return rep;
}

// ---------------------------------------------------------------------------
// ramp: the Fig 16 multi-path ramp in collapse mode
// ---------------------------------------------------------------------------

struct RampShape {
  std::size_t sites = 32;
  std::size_t trunks = 8;
  double target_gbps = 1000.0;
  std::size_t phases = 8;
  double phase_seconds = 120.0;
  /// run_until steps per phase: the slices of des.slice_ms.
  std::size_t slices_per_phase = 10;
  double file_bytes = 2e9;
  double per_stream_rate = 3.0e7;
};

RampShape ramp_shape(bool tiny) {
  RampShape r;
  if (tiny) {  // the CI smoke configuration of fig16
    r.sites = 8;
    r.trunks = 4;
    r.target_gbps = 50.0;
    r.phase_seconds = 60.0;
  }
  return r;
}

/// The simulation and the federation it drives.  Member order matters:
/// the federation is destroyed first, then the simulation reclaims the
/// streamer frames still suspended at the horizon.
struct RampWorld {
  des::Simulation sim;
  xrootd::FederationSim fed;
  std::uint64_t completed = 0;
  std::uint64_t broken = 0;
  explicit RampWorld(const xrootd::FederationSim::Params& p) : fed(sim, p) {}
};

des::Process ramp_streamer(RampWorld& w, double bytes, double until) {
  // Keep a stream open back-to-back until the horizon; broken streams and
  // failed opens retry immediately (the client's next file).
  while (w.sim.now() < until) {
    try {
      co_await w.fed.stream(bytes);
      ++w.completed;
    } catch (const xrootd::AccessError&) {
      ++w.broken;
    }
  }
}

Rep run_ramp_rep(const RampShape& rs, std::uint64_t seed, bool traced,
                 const std::string& trace_file) {
  Rep rep;
  const double target = util::gbit_per_s(rs.target_gbps);
  const double horizon = rs.phase_seconds * static_cast<double>(rs.phases);

  // ---- setup: topology plus the spawn schedule ----
  const auto t_setup = Clock::now();
  // Site uplinks oversized 1.5x their share of the target, so the shared
  // trunks bind at full load (fig16's topology).
  xrootd::FederationSim::Params p;
  p.per_stream_rate = rs.per_stream_rate;
  p.open_latency = 1.0;
  p.open_fail_delay = 15.0;
  const std::size_t ntr = std::min(rs.trunks, rs.sites);
  for (std::size_t t = 0; t < ntr; ++t)
    p.trunks.push_back(
        {"trunk-" + std::to_string(t), target / static_cast<double>(ntr)});
  for (std::size_t s = 0; s < rs.sites; ++s)
    p.paths.push_back({"site-" + std::to_string(s),
                       1.5 * target / static_cast<double>(rs.sites), s % ntr});
  p.path_policy = xrootd::PathPolicy::LeastLoaded;
  auto world = std::make_unique<RampWorld>(p);
  RampWorld& w = *world;
  util::Rng jitter = util::Rng(seed).stream("ramp-jitter");
  // Phase k runs enough streamers to demand (k+1)/phases of the target;
  // spawns jitter over the phase's first seconds, so a step is a burst.
  std::size_t running = 0;
  std::vector<double> offered(rs.phases, 0.0);
  for (std::size_t ph = 0; ph < rs.phases; ++ph) {
    const double demand = target * static_cast<double>(ph + 1) /
                          static_cast<double>(rs.phases);
    offered[ph] = demand / util::gbit_per_s(1.0);
    const auto want =
        static_cast<std::size_t>(std::ceil(demand / rs.per_stream_rate));
    const double at = rs.phase_seconds * static_cast<double>(ph);
    for (std::size_t i = running; i < want; ++i)
      w.sim.schedule(at + jitter.uniform(0.0, 5.0),
                     [&w, bytes = rs.file_bytes, horizon] {
                       w.sim.spawn(ramp_streamer(w, bytes, horizon));
                     });
    running = std::max(running, want);
  }
  // At the midpoint, collapse for 1.5 phases the uplink of the site then
  // carrying the most streams.  fig16 always collapses site 0, but streams
  // run in waves and for a few percent of seeds site 0 sits between two
  // waves at that instant, so nothing breaks.
  const std::size_t collapse_phase = rs.phases / 2;
  w.sim.schedule(0.5 * horizon, [&w, duration = 1.5 * rs.phase_seconds] {
    std::size_t busiest = 0;
    for (std::size_t s = 1; s < w.fed.num_paths(); ++s)
      if (w.fed.path_link(s).active_flows() >
          w.fed.path_link(busiest).active_flows())
        busiest = s;
    w.fed.schedule_path_outage(busiest, 0.0, duration);
  });
  rep.setup_s = seconds_since(t_setup);

  Probe probe;
  const auto t_trace0 = Clock::now();
  if (traced) {
    probe.path = trace_file;
    w.sim.tracer().set_sink(std::make_unique<HostStampSink>(probe, t_trace0));
  }

  // ---- run: phases are run_until calls; the per-phase throughput
  // extraction is the figure's report ----
  std::vector<double> last_bytes(w.fed.num_paths(), 0.0);
  std::vector<double> achieved(rs.phases, 0.0);
  std::vector<std::uint64_t> broken_at(rs.phases, 0);
  std::vector<std::uint64_t> failed_opens_at(rs.phases, 0);
  std::vector<double> phase_ms(rs.phases, 0.0);
  std::vector<double> phase_flows(rs.phases, 0.0);
  double max_trunk_flows = 0.0;
  auto trunk_flows = [&](bool busiest) {
    double total = 0.0;
    double most = 0.0;
    for (std::size_t t = 0; t < ntr; ++t) {
      const auto f = static_cast<double>(w.fed.trunk_link(t).active_flows());
      total += f;
      most = std::max(most, f);
    }
    return busiest ? most : total;
  };
  const double slice =
      rs.phase_seconds / static_cast<double>(rs.slices_per_phase);
  for (std::size_t ph = 0; ph < rs.phases; ++ph) {
    const auto t_phase = Clock::now();
    for (std::size_t k = 1; k <= rs.slices_per_phase; ++k) {
      const auto t_slice = Clock::now();
      w.sim.run_until(rs.phase_seconds * static_cast<double>(ph) +
                      slice * static_cast<double>(k));
      rep.slices_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t_slice)
              .count());
      if (traced)
        max_trunk_flows = std::max(max_trunk_flows, trunk_flows(true));
    }
    phase_ms[ph] =
        std::chrono::duration<double, std::milli>(Clock::now() - t_phase)
            .count();
    if (traced) phase_flows[ph] = trunk_flows(false);
    rep.run_s += phase_ms[ph] / 1000.0;

    // Per-phase throughput from per-site uplink byte deltas.  bytes_moved()
    // integrates up to a link's last event, so live links get a same-value
    // capacity poke; a downed link is exact without one.
    const auto t_report = Clock::now();
    for (std::size_t s = 0; s < w.fed.num_paths(); ++s) {
      auto& link = w.fed.path_link(s);
      if (!w.fed.path_down(s)) link.set_capacity(link.capacity());
      const double moved = link.bytes_moved();
      achieved[ph] += (moved - last_bytes[s]) / rs.phase_seconds /
                      util::gbit_per_s(1.0);
      last_bytes[s] = moved;
    }
    broken_at[ph] = w.broken;
    failed_opens_at[ph] = w.fed.failed_opens();
    rep.report_s += seconds_since(t_report);
  }
  {
    const auto t_tail = Clock::now();
    w.sim.run_until(horizon + 1.0);
    rep.run_s += seconds_since(t_tail);
  }
  if (traced) w.sim.tracer().close();

  // ---- outcome check and model digest (not timed) ----
  // fig16's two gates: the ramp gate on every phase before the collapse
  // (each delivers >= 85% of its offered load), and the collapse gate
  // (streams broke, and the final phase recovers to >= 70% of the target).
  // The final phase itself lands at 84-96% of the target depending on the
  // seed, so the ramp gate does not apply to it.
  for (std::size_t ph = 0; ph < collapse_phase && rep.why.empty(); ++ph)
    if (achieved[ph] < 0.85 * offered[ph])
      rep.why = "phase " + std::to_string(ph + 1) + " delivered " +
                std::to_string(achieved[ph]) + " of " +
                std::to_string(offered[ph]) + " Gbit/s offered";
  if (rep.why.empty() && w.broken == 0)
    rep.why = "no stream broke during the uplink collapse";
  else if (rep.why.empty() && achieved.back() < 0.70 * rs.target_gbps)
    rep.why = "final phase " + std::to_string(achieved.back()) +
              " Gbit/s is below 70% of the target";
  rep.ok = rep.why.empty();
  Digest d;
  d.add(achieved);
  for (std::size_t ph = 0; ph < rs.phases; ++ph) {
    d.add(broken_at[ph]);
    d.add(failed_opens_at[ph]);
  }
  d.add(w.completed);
  rep.digest = d.value();
  rep.sim_end = w.sim.now();
  rep.events = w.sim.events_executed();

  if (traced) {
    auto& L = rep.layer;
    const double events = static_cast<double>(w.sim.events_executed());
    L["des.events"] = events;
    L["des.events_per_s"] = ratio(events, rep.run_s);
    link_metrics(phase_ms, phase_flows, max_trunk_flows, rep);
    const auto snap = w.sim.counters().snapshot();
    L["xrootd.federation.streams"] =
        counter_value(snap, "xrootd.federation.streams");
    L["xrootd.federation.failed_opens"] =
        counter_value(snap, "xrootd.federation.failed_opens");
    L["util.trace.records"] = static_cast<double>(probe.records);
    L["core.report_s"] = rep.report_s;
  }

  const auto t_teardown = Clock::now();
  world.reset();
  rep.teardown_s = seconds_since(t_teardown);
  if (traced) rep.layer["lobsim.teardown_s"] = rep.teardown_s;
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  /// Host-time metrics take the median over traced members; modelled ones
  /// come from member 0, the seed's own scenario.
  bool host;
};

constexpr MetricDef kLayerMetrics[] = {
    {"des.events", "count", false},
    {"des.events_per_s", "1/s", true},
    {"des.slice_ms.p50", "ms", true},
    {"des.slice_ms.p99", "ms", true},
    {"link.flows.max", "count", false},
    {"link.phase_ms.max", "ms", true},
    {"link.phase_ms_per_kflow", "ms/kflow", true},
    {"lobsim.lifetime_call_us", "us", true},
    {"lobsim.tasks_dispatched", "count", false},
    {"lobsim.tasklets_retried", "count", false},
    {"lobsim.tasklet_yield", "ratio", false},
    {"cvmfs.squid.requests", "count", false},
    {"cvmfs.squid.timeouts", "count", false},
    {"cvmfs.squid.hit_ratio", "ratio", false},
    {"chirp.sim.puts", "count", false},
    {"chirp.sim.bytes_in", "B", false},
    {"xrootd.federation.streams", "count", false},
    {"xrootd.federation.failed_opens", "count", false},
    {"core.wait.env_setup_h", "h", false},
    {"core.wait.stage_in_h", "h", false},
    {"core.wait.io_h", "h", false},
    {"core.wait.stage_out_h", "h", false},
    {"core.wait.failed_h", "h", false},
    {"core.report_s", "s", true},
    {"lobsim.teardown_s", "s", true},
    {"util.trace.records", "count", false},
    {"util.trace.overhead_pct", "%", true},
};

/// Every run simulates at least this many members; the printed digest
/// covers exactly these, so it is comparable across runs and commits.
constexpr std::uint64_t kDigestMembers = 4;

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident memory of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the process that
/// exec'd us (the Python launcher).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

struct Out {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Out>& metrics) {
  for (const Out& m : metrics)
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// Seed of the k-th member scenario: member 0 runs the seed itself, later
/// members a splitmix64 derivation of (seed, k).
std::uint64_t member_seed(std::uint64_t seed, std::uint64_t k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + k * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  EngineScenario engine_sc;
  RampShape ramp_sc;
  if (o.workload == "dataproc")
    engine_sc = dataproc_scenario(o.tiny);
  else if (o.workload == "mcsim")
    engine_sc = mcsim_scenario(o.tiny);
  else
    ramp_sc = ramp_shape(o.tiny);

  // One run is a stream of member scenarios, each the workload's scenario
  // under its own seed, each simulated once (plus once traced in a trace
  // run).  A single scenario's host time swings by tens of percent with
  // its seed -- evictions late in a run stretch the tail, and idle slots
  // poll through it -- so the run averages over as many members as the
  // budget allows.  Members continue until one more would overrun it.
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest run_digest;
  const auto start = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t seed = member_seed(o.seed, k);
    const std::string trace_file =
        k == 0 && !o.trace_dir.empty()
            ? o.trace_dir + "/" + o.workload + "-seed" +
                  std::to_string(o.seed) + ".jsonl"
            : "";
    const auto t_member = Clock::now();
    std::uint64_t digest = 0;
    for (const bool trace_this : {false, true}) {
      if (trace_this && !o.trace) break;
      Rep rep;
      try {
        rep = o.workload == "ramp"
                  ? run_ramp_rep(ramp_sc, seed, trace_this, trace_file)
                  : run_engine_rep(engine_sc, seed, trace_this, trace_file);
      } catch (const std::exception& e) {
        rep.why = std::string("exception: ") + e.what();
      }
      ++attempted;
      if (rep.ok && trace_this && rep.digest != digest)
        rep.why = "traced digest differs from the untraced one";
      digest = rep.digest;
      std::fprintf(stderr,
                   "member %llu seed=%llu traced=%d setup_s=%.6f wall_s=%.6f "
                   "events=%llu sim_h=%.3f digest=%016llx\n",
                   static_cast<unsigned long long>(k),
                   static_cast<unsigned long long>(seed), trace_this ? 1 : 0,
                   rep.setup_s, rep.wall_s(),
                   static_cast<unsigned long long>(rep.events),
                   rep.sim_end / 3600.0,
                   static_cast<unsigned long long>(rep.digest));
      if (!rep.why.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s member %llu failed: %s\n",
                     o.workload.c_str(), static_cast<unsigned long long>(k),
                     rep.why.c_str());
      }
      (trace_this ? traced : plain).push_back(std::move(rep));
    }
    if (k < kDigestMembers) run_digest.add(digest);
    if (k + 1 >= kDigestMembers &&
        seconds_since(start) + seconds_since(t_member) > o.seconds)
      break;
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d members=%zu "
              "digest=%016llx\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, plain.size(),
              static_cast<unsigned long long>(run_digest.value()));

  auto collect = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return v;
  };
  const auto wall = collect(plain, [](const Rep& r) { return r.wall_s(); });

  std::vector<Out> out;
  if (!o.trace) {
    const auto setup = collect(plain, [](const Rep& r) { return r.setup_s; });
    std::printf("  wall_s per member: median %.6g, p90 %.6g over %zu members\n",
                median(wall), quantile(wall, 0.9), wall.size());
    out.push_back({"wall_s", "s", mean(wall)});
    out.push_back({"setup_s", "s", median(setup)});
    out.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  } else {
    std::vector<double> slices;
    for (const Rep& r : traced)
      slices.insert(slices.end(), r.slices_ms.begin(), r.slices_ms.end());
    const auto traced_wall =
        collect(traced, [](const Rep& r) { return r.wall_s(); });
    for (const MetricDef& def : kLayerMetrics) {
      const std::string name = def.name;
      auto layer = [&](const Rep& r) {
        const auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second;
      };
      double v = 0.0;
      if (name == "des.slice_ms.p50")
        v = quantile(slices, 0.50);
      else if (name == "des.slice_ms.p99")
        v = quantile(slices, 0.99);
      else if (name == "util.trace.overhead_pct")
        v = 100.0 * (mean(traced_wall) / mean(wall) - 1.0);
      else if (def.host)
        v = median(collect(traced, layer));
      else  // modelled: the seed's own scenario, independent of the budget
        v = layer(traced.front());
      out.push_back({name, def.unit, v});
    }
  }
  print_result(failed == 0, attempted, failed, out);
  return 0;
}
