// advisor.hpp — the online advisor loop (paper §5, promoted from
// post-mortem to control).
//
// The paper's dashboard rules told a human operator what to change: shrink
// the task size when lost runtime climbs, add squid capacity when setup
// times stretch, wait out an outage instead of hammering the federation.
// The Advisor closes that loop inside the simulation: the Engine ticks it
// on a fixed simulated-time period, each tick diffs the Monitor's
// cumulative aggregates into a per-window breakdown, runs the *same*
// diagnose_breakdown() rules the offline report uses, and actuates through
// the narrow AdvisorActions interface below.
//
// Determinism is a hard requirement (campaigns pin advisor-on runs bitwise
// identical serial vs parallel): no RNG, no wall clock — every decision is
// a pure function of the counter plane and simulated time, and the state
// is a handful of scalars.
#pragma once

#include <cstdint>
#include <vector>

#include "core/monitor.hpp"
#include "util/trace.hpp"

namespace lobster::lobsim {

/// Tunables of the online loop.  The thresholds are the same struct the
/// offline diagnosis uses, applied to per-window (not cumulative) wall.
struct AdvisorConfig {
  bool enabled = false;
  /// Simulated seconds between ticks (the observation window length).
  double period = 300.0;
  core::AdvisorThresholds thresholds;
  /// LostRuntime actuation: multiply the task-size cap by this per firing
  /// tick, floored at min_task_size.
  double shrink_factor = 0.5;
  std::uint32_t min_task_size = 1;
  /// SetupTime/Staging actuation: grant only this fraction of task pulls
  /// while the symptom is hot (squid/chirp load is superlinear in the
  /// number of concurrent clients, so shedding dispatch concurrency shrinks
  /// *total* wall, not just per-task wall).
  double throttle_share = 0.30;
  /// FailureBurst actuation: the probe trickle kept alive during an outage
  /// so recovery is observable (a fully drained site sees nothing).
  double probe_share = 0.05;
  /// Proxy-plane trigger: throttle when the squid fleet's windowed
  /// retransmit waste (cvmfs.squid.bytes_thrashed) exceeds this fraction of
  /// the bytes it served in the same window.  Completion-window rules lag by
  /// a full task latency; thrash bytes accrue while the overload is live, so
  /// this is the timely form of the "overloaded squid proxy" diagnosis.
  double proxy_waste_fraction = 0.05;
  /// Restore a rung of dispatch share once the causing symptom's windowed
  /// fraction drops below recover_factor * its trigger threshold.
  double recover_factor = 0.5;
  /// Share added per clean tick while restoring (0 -> probe_share first,
  /// then + restore_step up to 1).  A full-share jump would re-admit every
  /// deferred cold worker at once and recreate the very burst the throttle
  /// shed; the additive climb paces them out, and a symptom that reappears
  /// mid-climb re-throttles within one period.
  double restore_step = 0.25;
  /// EWMA time constant for the smoothed failure rate exported with every
  /// tick (observability only; decisions use the raw window).
  double ewma_tau = 600.0;
};

/// What the Advisor is allowed to touch — the whole actuation surface, so
/// the control loop cannot silently grow side channels into the Engine.
class AdvisorActions {
 public:
  virtual ~AdvisorActions() = default;
  /// Ceiling on analysis-task tasklet count (0 = no cap).
  virtual void set_task_size_cap(std::uint32_t cap) = 0;
  /// Fraction of `site`'s task pulls that may be granted: 1 = unthrottled,
  /// 0 = drained (no new work; running tasks finish).
  virtual void set_dispatch_share(std::size_t site, double share) = 0;
};

/// One actuation (or advice) taken at a tick; the Engine mirrors each onto
/// the trace plane as an instant plus a lobsim.advisor.* counter.
struct AdvisorDecision {
  enum class Kind : std::uint8_t { Shrink, Throttle, Drain, Restore, Advise };
  Kind kind = Kind::Advise;
  core::DiagnosisRule rule = core::DiagnosisRule::LostRuntime;
  /// New cap (Shrink) or new dispatch share (Throttle/Drain/Restore).
  double value = 0.0;
  double severity = 0.0;  ///< of the triggering diagnosis, 0..1
};
const char* to_string(AdvisorDecision::Kind k);

/// Infrastructure-side inputs for one observation window, already windowed
/// by the caller (the Engine diffs counter-plane snapshots per tick via
/// CounterRegistry::snapshot_delta).  Zero-initialized means "no proxy
/// evidence this window" and disables the proxy trigger.
struct AdvisorGauges {
  double proxy_bytes_served = 0.0;    ///< cvmfs.squid.bytes_served delta
  double proxy_bytes_thrashed = 0.0;  ///< cvmfs.squid.bytes_thrashed delta
};

class Advisor {
 public:
  /// `initial_task_size` seeds the shrink ladder (the workload's
  /// tasklets_per_task); `num_sites` scopes the share actuation.
  Advisor(const AdvisorConfig& config, std::uint32_t initial_task_size,
          std::size_t num_sites);

  /// Evaluate one observation window ending at `now` and actuate.  The
  /// monitor supplies cumulative aggregates; the Advisor windows them by
  /// diffing against the previous tick.  `gauges` carries the counter-plane
  /// window rates the Engine sampled for this tick.  Returns the decisions
  /// taken, in deterministic order.
  std::vector<AdvisorDecision> tick(double now, const core::Monitor& monitor,
                                    const AdvisorGauges& gauges,
                                    AdvisorActions& actions);

  [[nodiscard]] const AdvisorConfig& config() const { return cfg_; }
  /// Current task-size cap (0 = none) and dispatch share.
  [[nodiscard]] std::uint32_t task_size_cap() const { return cap_; }
  [[nodiscard]] double dispatch_share() const { return share_; }
  /// Smoothed failed-task wall seconds per second (EWMA over ticks).
  [[nodiscard]] double failure_ewma() const { return failure_ewma_.rate(); }
  /// Last window's proxy waste fraction (thrashed / served bytes, 0..1).
  [[nodiscard]] double proxy_waste_frac() const { return proxy_frac_; }

 private:
  void apply_share(double share, AdvisorActions& actions);

  AdvisorConfig cfg_;
  std::uint32_t initial_task_size_;
  std::size_t num_sites_;

  // Previous-tick cumulative aggregates (the window baseline).
  core::RuntimeBreakdown prev_breakdown_;
  double prev_lost_ = 0.0;
  double prev_dispatch_ = 0.0;

  std::uint32_t cap_ = 0;    ///< 0 = no cap yet
  double share_ = 1.0;       ///< current dispatch share, all sites
  core::DiagnosisRule cause_ = core::DiagnosisRule::FailureBurst;
  /// True when the current throttle was triggered by the proxy-plane waste
  /// rate; recovery then watches that rate, not the lagged completion rule.
  bool cause_proxy_ = false;
  double proxy_frac_ = 0.0;  ///< last window's thrashed/served fraction

  util::EwmaRate failure_ewma_;
};

}  // namespace lobster::lobsim
