// trace.hpp — structured tracing and the unified counter plane (paper §5).
//
// "We have implemented a comprehensive monitoring system that covers almost
// every aspect of the system and the infrastructure."  core::Monitor holds
// the aggregates; this layer records *why an individual task was slow*: a
// per-task span timeline plus named counters, exported as JSONL (one event
// per line, machine-readable) or as Chrome trace events (load the file in
// Perfetto / chrome://tracing and scrub the task lifecycle visually).
//
// Design constraints, in priority order:
//
//  * Deterministic.  Spans are stamped with *simulated* time (the Tracer's
//    clock is bound to des::Simulation::now()), events are buffered in
//    memory and flushed on close, and doubles are printed with "%.17g" so a
//    run's trace file is bitwise identical no matter which campaign worker
//    thread executed it — the same contract the golden-metrics harness
//    pins for scalar metrics.
//  * Near-free when disabled.  With no sink installed, Tracer::span()
//    returns an inert Span (null tracer pointer, no clock read, no
//    allocation) and a counter add is a plain add; the hot paths of the DES
//    kernel and the engine pay one predictable branch.
//  * One counter plane per simulation.  Each des::Simulation owns one
//    CounterRegistry, and only the thread running that simulation touches
//    it (Campaign gives every run its own Engine), so counters and gauges
//    are plain values with no atomics or locks.  snapshot() returns a
//    name-ordered view for deterministic export.  The real multi-threaded
//    wq/chirp/hdfs substrate reports through its classes' own accessors,
//    not through this plane.
//
// Counter naming convention: `<layer>.<subsystem>.<metric>` with
// lower_snake_case metrics, e.g. "cvmfs.squid.requests",
// "chirp.sim.bytes_out", "lobsim.engine.tasklets_retried".  Monotonic event
// counts are Counters (integers); byte volumes and levels are Gauges
// (doubles).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lobster::util {

// ---------------------------------------------------------------------------
// Export formats
// ---------------------------------------------------------------------------

enum class TraceFormat : std::uint8_t { Jsonl, Chrome };
const char* to_string(TraceFormat f);
/// ".jsonl" / ".json" — what a per-run trace file should end with.
const char* trace_extension(TraceFormat f);
/// Parse "jsonl" / "chrome"; throws std::invalid_argument otherwise.
TraceFormat parse_trace_format(const std::string& s);

/// One numeric key/value attached to a span end or instant event.  Keys are
/// string literals (span sites name them statically); values are doubles so
/// segment times survive the round trip exactly.
struct TraceArg {
  const char* key;
  double value;
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where trace events go.  Implementations buffer in memory and write the
/// destination file in close() — one atomic flush keeps per-run files
/// bitwise deterministic and keeps file I/O off the simulation hot path.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin(const char* cat, const char* name, std::uint64_t track,
                     double t) = 0;
  virtual void end(const char* cat, const char* name, std::uint64_t track,
                   double t, const std::vector<TraceArg>& args) = 0;
  virtual void instant(const char* cat, const char* name, std::uint64_t track,
                       double t, const std::vector<TraceArg>& args) = 0;
  virtual void counter(const char* name, double t, double value) = 0;
  /// Flush the buffered events to the destination path (no-op when the
  /// path is empty — in-memory sinks for tests and benches).  Idempotent.
  virtual void close() = 0;
};

/// JSONL: one JSON object per line, `ev` is B/E/i/C, `t` is simulated
/// seconds.  The machine-readable format lobster_report and the tests
/// consume (read_trace_jsonl below round-trips it).
class JsonlTraceSink final : public TraceSink {
 public:
  /// `path` empty keeps the trace in memory only (see buffer()).
  explicit JsonlTraceSink(std::string path);

  void begin(const char* cat, const char* name, std::uint64_t track,
             double t) override;
  void end(const char* cat, const char* name, std::uint64_t track, double t,
           const std::vector<TraceArg>& args) override;
  void instant(const char* cat, const char* name, std::uint64_t track,
               double t, const std::vector<TraceArg>& args) override;
  void counter(const char* name, double t, double value) override;
  void close() override;

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  std::string path_;
  std::string buf_;
  bool closed_ = false;
};

/// Chrome trace-event JSON: a {"traceEvents":[...]} array with microsecond
/// timestamps, pid 0 and the span's track as tid — loadable in Perfetto and
/// chrome://tracing.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::string path);

  void begin(const char* cat, const char* name, std::uint64_t track,
             double t) override;
  void end(const char* cat, const char* name, std::uint64_t track, double t,
           const std::vector<TraceArg>& args) override;
  void instant(const char* cat, const char* name, std::uint64_t track,
               double t, const std::vector<TraceArg>& args) override;
  void counter(const char* name, double t, double value) override;
  void close() override;

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  void event_prefix(char ph, const char* cat, const char* name,
                    std::uint64_t track, double t);

  std::string path_;
  std::string buf_;
  bool first_ = true;
  bool closed_ = false;
};

std::unique_ptr<TraceSink> make_trace_sink(TraceFormat format,
                                           std::string path);

// ---------------------------------------------------------------------------
// Tracer + RAII spans
// ---------------------------------------------------------------------------

class Tracer;

/// RAII span: begin event at construction, end event at destruction (or an
/// explicit end()), so spans stay balanced even when a task throws or a
/// coroutine frame unwinds at teardown.  Inert (null tracer) when tracing
/// is disabled: no clock read, no allocation.
class [[nodiscard]] Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept
      : tracer_(o.tracer_), cat_(o.cat_), name_(o.name_), track_(o.track_),
        args_(std::move(o.args_)) {
    o.tracer_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;
  ~Span() { end(); }

  /// True when the span is live (tracing enabled and not yet ended).
  explicit operator bool() const { return tracer_ != nullptr; }

  /// Attach a numeric argument to the end event.  `key` must outlive the
  /// span (string literals at the call sites).  No-op when inert.
  void arg(const char* key, double value) {
    if (tracer_) args_.push_back({key, value});
  }

  /// Emit the end event now; the destructor becomes a no-op.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, const char* cat, const char* name, std::uint64_t track)
      : tracer_(tracer), cat_(cat), name_(name), track_(track) {}

  Tracer* tracer_ = nullptr;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t track_ = 0;
  std::vector<TraceArg> args_;
};

/// The per-simulation event emitter.  Owned by des::Simulation; time comes
/// from a bound clock pointer (the simulation's now), so every event is
/// stamped with simulated seconds and the trace is independent of wall
/// time, thread scheduling, and host load.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Bind the time source (des::Simulation points this at its now).
  void bind_clock(const double* now) { clock_ = now; }
  /// Install (or clear) the sink.  Null disables tracing.
  void set_sink(std::unique_ptr<TraceSink> sink) { sink_ = std::move(sink); }
  [[nodiscard]] bool enabled() const { return sink_ != nullptr; }
  [[nodiscard]] TraceSink* sink() { return sink_.get(); }
  [[nodiscard]] double now() const { return clock_ ? *clock_ : 0.0; }

  /// Open a span on `track`; inert when disabled.
  Span span(const char* cat, const char* name, std::uint64_t track = 0) {
    if (!sink_) return Span();
    sink_->begin(cat, name, track, now());
    return Span(this, cat, name, track);
  }

  /// A zero-duration marker event.
  void instant(const char* cat, const char* name, std::uint64_t track = 0,
               std::initializer_list<TraceArg> args = {}) {
    if (!sink_) return;
    const std::vector<TraceArg> v(args);
    sink_->instant(cat, name, track, now(), v);
  }

  /// A counter sample (Perfetto renders these as a value track).
  void counter(const char* name, double value) {
    if (sink_) sink_->counter(name, now(), value);
  }

  /// Flush and detach the sink (the trace file is complete after this).
  void close() {
    if (!sink_) return;
    sink_->close();
    sink_.reset();
  }

 private:
  friend class Span;
  const double* clock_ = nullptr;
  std::unique_ptr<TraceSink> sink_;
};

inline void Span::end() {
  if (!tracer_) return;
  // The sink may already be flushed and detached (Tracer::close at the end
  // of a truncated run) while suspended coroutine frames still hold live
  // spans; their teardown must not touch the dead sink.
  if (tracer_->sink_)
    tracer_->sink_->end(cat_, name_, track_, tracer_->now(), args_);
  tracer_ = nullptr;
}

// ---------------------------------------------------------------------------
// Counter plane
// ---------------------------------------------------------------------------

/// A named monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// A named double-valued level (byte volumes, occupancy).
class Gauge {
 public:
  void add(double d) noexcept { v_ += d; }
  void set(double d) noexcept { v_ = d; }
  [[nodiscard]] double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Registry of named counters and gauges.  The returned references are
/// stable for the registry's lifetime, so hot paths cache the pointer once
/// and then touch only the value.  Instances sharing a name share the
/// counter — that is the "unified plane": every squid of a site, every
/// worker slot, and the engine all accumulate into one namespace.
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Find-or-create; the reference stays valid until the registry dies.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  struct Sample {
    std::string name;
    double value = 0.0;
    bool is_gauge = false;
  };
  /// Every counter and gauge, name-ordered (deterministic export order).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Windowed view: `after - before` for two name-ordered snapshots of the
  /// same registry.  The result carries one Sample per name in `after`
  /// (value = after minus before, 0 when the name is new); names present
  /// only in `before` are dropped — a registry never unregisters, so that
  /// case only arises when comparing unrelated registries.  This is the
  /// primitive behind "retries/s over the last 300 s": take a snapshot per
  /// advisor tick and diff against the previous one instead of scanning
  /// traces.
  [[nodiscard]] static std::vector<Sample> snapshot_delta(
      const std::vector<Sample>& before, const std::vector<Sample>& after);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/// Exponentially-weighted moving-average *rate* of a cumulative total,
/// bound to simulated time: feed it (now, total) observations and read back
/// a smoothed events-per-second level whose memory decays with time
/// constant `tau` seconds.  Irregular sampling intervals are handled by the
/// standard alpha = 1 - exp(-dt/tau) correction, so an advisor ticking
/// every 300 s and a gauge sampler ticking every 60 s see consistent
/// semantics.  Pure arithmetic over doubles — deterministic wherever the
/// inputs are.
class EwmaRate {
 public:
  /// `tau` must be > 0 (seconds of smoothing memory).
  explicit EwmaRate(double tau) : tau_(tau > 0.0 ? tau : 1.0) {}

  /// Observe the cumulative total at simulated time `now`.  The first call
  /// only primes the baseline (rate stays 0); calls that do not advance
  /// time are ignored.  Returns the updated rate.
  double update(double now, double total);

  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double tau() const { return tau_; }

 private:
  double tau_;
  double rate_ = 0.0;
  double last_t_ = 0.0;
  double last_total_ = 0.0;
  bool primed_ = false;
};

// ---------------------------------------------------------------------------
// Reading traces back (lobster_report, validation, tests)
// ---------------------------------------------------------------------------

/// One parsed JSONL trace event.
struct TraceEvent {
  char phase = '?';  ///< 'B' begin, 'E' end, 'i' instant, 'C' counter
  double t = 0.0;
  std::uint64_t track = 0;
  std::string cat;
  std::string name;
  double value = 0.0;  ///< counter events
  std::vector<std::pair<std::string, double>> args;

  /// Value of `key` in args, or `fallback`.
  [[nodiscard]] double arg(const std::string& key,
                           double fallback = 0.0) const;
};

/// Parse a JSONL trace file; throws std::runtime_error on unreadable files
/// or malformed lines.
std::vector<TraceEvent> read_trace_jsonl(const std::string& path);
/// Parse from memory (one event per line).
std::vector<TraceEvent> parse_trace_jsonl(const std::string& text);

/// Structural validation: timestamps non-negative and non-decreasing in
/// file order, begin/end spans balanced per track with matching names.
/// Returns "" when valid, else a description of the first violation.
std::string validate_trace(const std::vector<TraceEvent>& events);

}  // namespace lobster::util
