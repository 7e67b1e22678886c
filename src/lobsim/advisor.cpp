#include "lobsim/advisor.hpp"

#include <algorithm>
#include <cmath>

namespace lobster::lobsim {

const char* to_string(AdvisorDecision::Kind k) {
  switch (k) {
    case AdvisorDecision::Kind::Shrink: return "shrink";
    case AdvisorDecision::Kind::Throttle: return "throttle";
    case AdvisorDecision::Kind::Drain: return "drain";
    case AdvisorDecision::Kind::Restore: return "restore";
    case AdvisorDecision::Kind::Advise: return "advise";
  }
  return "?";
}

namespace {

/// The windowed fraction a rule triggers on — the same arithmetic
/// diagnose_breakdown() applies, exposed so recovery can watch a symptom
/// sink back *below* threshold (hysteresis needs the value, not just the
/// fired/not-fired bit).
double rule_fraction(const core::RuntimeBreakdown& win, double lost,
                     double dispatch, core::DiagnosisRule rule) {
  const double total = win.total();
  if (total <= 0.0) return 0.0;
  switch (rule) {
    case core::DiagnosisRule::LostRuntime: return lost / total;
    case core::DiagnosisRule::DispatchWait: return dispatch / total;
    case core::DiagnosisRule::SetupTime:
      return (win.other > 0.0 ? win.other : 0.0) / total;
    case core::DiagnosisRule::Staging:
      return (win.stage_in + win.stage_out) / total;
    case core::DiagnosisRule::FailureBurst: return win.hard_failed / total;
  }
  return 0.0;
}

double rule_threshold(const core::AdvisorThresholds& th,
                      core::DiagnosisRule rule) {
  switch (rule) {
    case core::DiagnosisRule::LostRuntime: return th.lost_fraction;
    case core::DiagnosisRule::DispatchWait: return th.dispatch_fraction;
    case core::DiagnosisRule::SetupTime: return th.setup_fraction;
    case core::DiagnosisRule::Staging: return th.staging_fraction;
    case core::DiagnosisRule::FailureBurst: return th.failed_fraction;
  }
  return 1.0;
}

}  // namespace

Advisor::Advisor(const AdvisorConfig& config, std::uint32_t initial_task_size,
                 std::size_t num_sites)
    : cfg_(config),
      initial_task_size_(std::max<std::uint32_t>(1, initial_task_size)),
      num_sites_(num_sites),
      failure_ewma_(cfg_.ewma_tau) {}

void Advisor::apply_share(double share, AdvisorActions& actions) {
  share_ = share;
  for (std::size_t s = 0; s < num_sites_; ++s)
    actions.set_dispatch_share(s, share);
}

std::vector<AdvisorDecision> Advisor::tick(double now,
                                           const core::Monitor& monitor,
                                           const AdvisorGauges& gauges,
                                           AdvisorActions& actions) {
  std::vector<AdvisorDecision> out;

  // Window = cumulative aggregates minus the previous tick's (the
  // counter-plane snapshot_delta idea applied to the Monitor plane).
  const core::RuntimeBreakdown cum = monitor.breakdown();
  core::RuntimeBreakdown win;
  win.cpu = cum.cpu - prev_breakdown_.cpu;
  win.io = cum.io - prev_breakdown_.io;
  win.failed = cum.failed - prev_breakdown_.failed;
  win.hard_failed = cum.hard_failed - prev_breakdown_.hard_failed;
  win.stage_in = cum.stage_in - prev_breakdown_.stage_in;
  win.stage_out = cum.stage_out - prev_breakdown_.stage_out;
  win.other = cum.other - prev_breakdown_.other;
  const double win_lost = monitor.lost_time() - prev_lost_;
  const double win_dispatch = monitor.dispatch_time() - prev_dispatch_;
  prev_breakdown_ = cum;
  prev_lost_ = monitor.lost_time();
  prev_dispatch_ = monitor.dispatch_time();

  failure_ewma_.update(now, cum.failed);

  // Proxy-plane symptom: the fraction of this window's served bytes the
  // squid fleet wasted on overload retransmits.  thrashed can momentarily
  // exceed served (waste ticks at admission, served at transfer end), so
  // clamp; a window with waste but no completed service is fully hot.
  proxy_frac_ = 0.0;
  if (gauges.proxy_bytes_thrashed > 0.0)
    proxy_frac_ =
        gauges.proxy_bytes_served > 0.0
            ? std::min(1.0,
                       gauges.proxy_bytes_thrashed / gauges.proxy_bytes_served)
            : 1.0;

  const std::vector<core::Diagnosis> diags =
      core::diagnose_breakdown(win, win_lost, win_dispatch, cfg_.thresholds);

  // ---- task sizing (LostRuntime) and advice-only rules --------------------
  for (const core::Diagnosis& d : diags) {
    if (d.rule == core::DiagnosisRule::LostRuntime) {
      const std::uint32_t cur = cap_ ? cap_ : initial_task_size_;
      const auto shrunk = static_cast<std::uint32_t>(
          cfg_.shrink_factor * static_cast<double>(cur));
      const std::uint32_t next = std::max(cfg_.min_task_size, shrunk);
      if (next < cur) {
        cap_ = next;
        actions.set_task_size_cap(cap_);
        out.push_back({AdvisorDecision::Kind::Shrink, d.rule,
                       static_cast<double>(cap_), d.severity});
      }
    } else if (d.rule == core::DiagnosisRule::DispatchWait) {
      // No safe online actuator (foreman count is physical capacity); the
      // advice still lands on the trace plane for the operator.
      out.push_back({AdvisorDecision::Kind::Advise, d.rule, 0.0, d.severity});
    }
  }

  // ---- dispatch share ladder ----------------------------------------------
  // The most restrictive firing rule wins: a severe failure burst drains
  // (share 0), a mild one probes, squid/chirp overload throttles.
  double desired = 1.0;
  core::DiagnosisRule desired_cause = cause_;
  bool desired_proxy = false;
  double desired_sev = 0.0;
  // The proxy waste rate is the timely form of the SetupTime diagnosis
  // (overloaded squid): evaluated first, so when both forms fire the
  // throttle's cause — and thus its recovery signal — is the live one.
  if (proxy_frac_ > cfg_.proxy_waste_fraction) {
    desired = cfg_.throttle_share;
    desired_cause = core::DiagnosisRule::SetupTime;
    desired_proxy = true;
    desired_sev = std::min(
        1.0, (proxy_frac_ - cfg_.proxy_waste_fraction) /
                 cfg_.proxy_waste_fraction);
  }
  for (const core::Diagnosis& d : diags) {
    double s = 1.0;
    if (d.rule == core::DiagnosisRule::FailureBurst)
      s = d.severity >= 1.0 ? 0.0 : cfg_.probe_share;
    else if (d.rule == core::DiagnosisRule::SetupTime ||
             d.rule == core::DiagnosisRule::Staging)
      s = cfg_.throttle_share;
    else
      continue;
    if (s < desired) {
      desired = s;
      desired_cause = d.rule;
      desired_proxy = false;
      desired_sev = d.severity;
    }
  }

  if (desired < share_) {
    cause_ = desired_cause;
    cause_proxy_ = desired_proxy;
    apply_share(desired, actions);
    out.push_back({desired == 0.0 ? AdvisorDecision::Kind::Drain
                                  : AdvisorDecision::Kind::Throttle,
                   desired_cause, desired, desired_sev});
  } else if (share_ < 1.0) {
    // Recovery with hysteresis: the causing symptom must sink below
    // recover_factor * threshold in this window.  A proxy-caused throttle
    // recovers on the proxy waste rate (live, so recovery is prompt); a
    // completion-rule throttle recovers on that rule's windowed fraction.
    // An empty window counts as clean (rule_fraction reports 0): it
    // carries no evidence the symptom persists, and demanding a non-empty
    // clean window would stall a throttled site whose in-flight tasks take
    // longer than a period to land — during a real outage the probe
    // failures keep windows non-empty, so the ladder cannot climb through
    // one.  Restore climbs gradually — 0 -> probe_share, then
    // + restore_step per clean tick up to 1 — so the deferred cold cohort
    // is paced back in; a still-hot symptom re-throttles on the next
    // window, bounding the oscillation to one step per period.
    const double frac = cause_proxy_
                            ? proxy_frac_
                            : rule_fraction(win, win_lost, win_dispatch, cause_);
    const double threshold = cause_proxy_
                                 ? cfg_.proxy_waste_fraction
                                 : rule_threshold(cfg_.thresholds, cause_);
    const bool recovered = frac < cfg_.recover_factor * threshold;
    if (recovered) {
      double next = share_ == 0.0
                        ? cfg_.probe_share
                        : std::min(1.0, share_ + cfg_.restore_step);
      if (desired < next) {  // another rule still wants a lower rung
        next = desired;
        cause_ = desired_cause;
        cause_proxy_ = desired_proxy;
      }
      if (next > share_) {
        apply_share(next, actions);
        out.push_back({AdvisorDecision::Kind::Restore, cause_, next, 0.0});
      }
    }
  }
  return out;
}

}  // namespace lobster::lobsim
