// availability.hpp — pluggable worker-availability models for SiteManager.
//
// The paper's core premise is running on *non-dedicated* resources whose
// availability is empirically measured and highly variable (§3, Figure 2).
// Which climate a site lives under changes the optimal task-sizing answer
// (the Figure 3 trade-off), so the climate is a pluggable layer like the
// DispatchPolicy and MergePlanner: one interface, four climates, one
// factory, selectable from a scenario INI (`availability = ...`).
//
//   weibull           — stationary Weibull(shape, scale) lifetimes drawn in
//                       closed form: the Figure 2 calibration;
//   trace             — replay a real eviction-interval log (e.g. parsed
//                       from HTCondor logs) loaded from a CSV, cycling with
//                       per-worker phase offsets;
//   diurnal           — day/night sinusoidal modulation of the Weibull
//                       scale over simulated time (campus machines are
//                       reclaimed by interactive users during the day);
//                       `weibull` is its amplitude-0 case, one class;
//   adversarial-burst — correlated mass-eviction events on a fixed period,
//                       the worst case for merge-group loss.
//
// Every model exposes expected_lifetime(now): the queryable distribution
// the `lifetime` DispatchPolicy sizes tasks against.  (The §4.1 task-size
// Monte Carlo of fig03/fig12 draws from core::EvictionModel instead.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lobster::lobsim {

enum class AvailabilityKind { Weibull, Trace, Diurnal, AdversarialBurst };

const char* to_string(AvailabilityKind kind);

/// One site's availability climate.  The Weibull shape/scale double as the
/// base climate of the diurnal and burst models.
struct AvailabilityConfig {
  AvailabilityKind kind = AvailabilityKind::Weibull;
  double scale_hours = 4.0;  ///< Weibull scale (Figure 2 calibration)
  double shape = 0.8;        ///< Weibull shape (< 1: decreasing hazard)

  /// Trace replay: eviction intervals in seconds.  `trace` (preloaded,
  /// shareable across campaign runs) takes precedence over `trace_path`
  /// (a CSV loaded once per SiteManager).
  std::string trace_path;
  std::shared_ptr<const std::vector<double>> trace;

  /// Diurnal: fractional modulation of the scale, in [0, 1).  The scale
  /// bottoms out at scale*(1-amplitude) at `peak_hour` (harshest eviction)
  /// and peaks at scale*(1+amplitude) twelve hours later.
  double diurnal_amplitude = 0.6;
  double diurnal_peak_hour = 14.0;  ///< simulated hour-of-day, [0, 24)

  /// Adversarial bursts: every `burst_period_hours` a mass-eviction event
  /// claims `burst_fraction` of the then-running workers simultaneously.
  double burst_period_hours = 6.0;
  double burst_fraction = 0.5;
};

/// Survival-time model for a (re)started worker incarnation, given the
/// simulated start time and a replay phase.
class AvailabilityModel {
 public:
  virtual ~AvailabilityModel() = default;
  /// Draw the survival time of an incarnation starting at `now`.  `rng` is
  /// the worker's private stream; `phase` is the worker's replay position
  /// (per-worker offset + incarnation index), used by trace replay so
  /// concurrent workers walk different sections of the log.
  virtual double sample_survival_at(util::Rng& rng, double now,
                                    std::uint64_t phase) const = 0;
  /// Expected lifetime of a fresh incarnation starting at `now` — the
  /// queryable distribution an expected-lifetime DispatchPolicy sizes
  /// tasks against.
  virtual double expected_lifetime(double now) const = 0;
  /// The climate's name ("weibull", "trace", ...; "none" without evictions).
  virtual const char* name() const = 0;
};

/// Dedicated resources (evictions disabled): infinite survival.
class AlwaysAvailable final : public AvailabilityModel {
 public:
  double sample_survival_at(util::Rng&, double, std::uint64_t) const override;
  double expected_lifetime(double) const override;
  const char* name() const override { return "none"; }
};

/// Replay of a recorded eviction-interval log.  Worker w's incarnation k
/// reads entry (phase_w + k) mod n — a cycling replay with per-worker
/// phase offsets, so the whole log is covered without two workers marching
/// in lockstep, and without consuming the worker's RNG stream.
class TraceAvailability final : public AvailabilityModel {
 public:
  explicit TraceAvailability(
      std::shared_ptr<const std::vector<double>> intervals);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "trace"; }
  std::size_t size() const { return intervals_->size(); }

 private:
  std::shared_ptr<const std::vector<double>> intervals_;
  double mean_ = 0.0;
};

/// Weibull survival drawn in closed form, its scale optionally modulated
/// sinusoidally over the simulated day.  Amplitude 0 is the stationary
/// `weibull` climate.  Otherwise it is `diurnal`: at `peak_hour` the scale
/// bottoms out (interactive users reclaim their machines); twelve hours
/// later the pool is calmest.
class WeibullAvailability final : public AvailabilityModel {
 public:
  WeibullAvailability(double shape, double scale_hours,
                      double amplitude = 0.0, double peak_hour = 0.0);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override {
    return amplitude_ > 0.0 ? "diurnal" : "weibull";
  }
  /// The modulated scale (seconds) at simulated time `now`.
  double scale_at(double now) const;

 private:
  double shape_;
  double scale_seconds_;
  double amplitude_;
  double peak_hour_;
  double mean_factor_;  ///< Gamma(1 + 1/shape): Weibull mean / scale
};

/// Correlated mass evictions: every `period` seconds a burst claims
/// `fraction` of the running workers at the same instant (a batch-system
/// drain, a priority preemption wave) — the worst case for merge-group
/// loss because co-scheduled tasks die together.  Between bursts the
/// survivors live under the calm Weibull base climate.
class AdversarialBurstAvailability final : public AvailabilityModel {
 public:
  AdversarialBurstAvailability(double shape, double scale_hours,
                               double period_hours, double fraction);
  double sample_survival_at(util::Rng& rng, double now,
                            std::uint64_t phase) const override;
  double expected_lifetime(double now) const override;
  const char* name() const override { return "adversarial-burst"; }
  /// The first burst instant strictly after `now`.
  double next_burst(double now) const;

 private:
  double shape_;
  double scale_seconds_;
  double period_;
  double fraction_;
  double mean_factor_;
};

/// Build a model from its config: `weibull` and `diurnal` share
/// WeibullAvailability (amplitude 0 for `weibull`).  Models hold no RNG
/// state; draws use the stream the caller passes.  Throws
/// std::invalid_argument on bad parameters or an unreadable/empty trace.
std::unique_ptr<AvailabilityModel> make_availability_model(
    const AvailabilityConfig& config);

/// Parse the scenario-INI / CLI spec syntax:
///
///   weibull[:scale=H,shape=S]
///   trace:PATH            (or trace:path=PATH)
///   diurnal[:scale=H,shape=S,amplitude=A,peak=HOUR]
///   adversarial-burst[:period=H,fraction=F,scale=H,shape=S]
///
/// Unknown kinds or keys throw std::invalid_argument.  scale/period accept
/// plain hours or duration suffixes ("90m", "1.5h").
AvailabilityConfig parse_availability_spec(const std::string& spec);

/// Load an eviction-interval trace: one or more comma-separated interval
/// values (seconds) per line; '#' comments and blank lines are skipped.
/// Throws std::invalid_argument on unreadable files, non-numeric fields,
/// non-positive intervals, or an empty trace.
std::vector<double> load_trace_csv(const std::string& path);

}  // namespace lobster::lobsim
