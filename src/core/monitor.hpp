// monitor.hpp — performance monitoring and diagnosis (paper §5).
//
// "Due to the large number of interacting components in Lobster,
// troubleshooting problems can be very challenging. ... we have implemented
// a comprehensive monitoring system that covers almost every aspect of the
// system and the infrastructure."
//
// The Monitor ingests finished TaskRecords plus infrastructure gauges and
// provides:
//  * run timelines — tasks running / completed / failed per time bin and the
//    CPU/wall efficiency ratio (Figures 10 and 11);
//  * the runtime breakdown table — CPU / I/O / failed / stage-in / stage-out
//    (Figure 8);
//  * a diagnosis advisor encoding the troubleshooting rules the paper lists:
//      - high lost runtime            -> target task size too high
//      - long sandbox stage-in / wait -> use more foremen
//      - consistently long setup      -> overloaded squid proxy
//      - long stage-in and stage-out  -> overloaded Chirp server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/db.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace lobster::core {

/// The Figure 8 table: wall time attributed to each phase across the run.
struct RuntimeBreakdown {
  double cpu = 0.0;        ///< "Task CPU Time"
  double io = 0.0;         ///< "Task I/O Time" (streaming reads inside run)
  double failed = 0.0;     ///< wall time of failed tasks
  /// Subset of `failed`: wall of tasks that exited non-zero (infrastructure
  /// failures), excluding evictions.  Not part of total().  The
  /// failure-burst rule keys on this so the opportunistic climate's routine
  /// evictions do not read as an outage.
  double hard_failed = 0.0;
  double stage_in = 0.0;   ///< "WQ Stage In" (sandbox + input staging)
  double stage_out = 0.0;  ///< "WQ Stage Out"
  double other = 0.0;      ///< env setup, dispatch, cleanup
  [[nodiscard]] double total() const {
    return cpu + io + failed + stage_in + stage_out + other;
  }
  friend bool operator==(const RuntimeBreakdown&,
                         const RuntimeBreakdown&) = default;
};

/// Which §5 troubleshooting rule fired.  The online advisor
/// (lobsim::Advisor) keys its actuation off this, so the mapping from
/// symptom to intervention is explicit rather than string-matched.
enum class DiagnosisRule : std::uint8_t {
  LostRuntime,   ///< lost / total wall too high — task size too large
  DispatchWait,  ///< sandbox stage-in / dispatch wait — need more foremen
  SetupTime,     ///< env setup — overloaded squid proxy
  Staging,       ///< stage-in + stage-out — overloaded Chirp server
  FailureBurst,  ///< failed-task wall — transient infrastructure outage
};
const char* to_string(DiagnosisRule r);

/// One diagnosis from the advisor.
struct Diagnosis {
  std::string symptom;
  std::string advice;
  double severity = 0.0;  ///< 0..1, how far past the trigger threshold
  DiagnosisRule rule = DiagnosisRule::LostRuntime;
};

/// Tunable trigger thresholds for the advisor.
struct AdvisorThresholds {
  double lost_fraction = 0.10;       ///< lost / total wall
  double dispatch_fraction = 0.05;   ///< dispatch wait / total wall
  double setup_fraction = 0.15;      ///< env setup / total wall
  double staging_fraction = 0.25;    ///< (stage_in + stage_out) / total wall
  double failed_fraction = 0.20;     ///< failed-task wall / total wall
};

/// The §5 rules as a pure function over an aggregated breakdown — callable
/// on the cumulative run totals (Monitor::diagnose) or on a windowed delta
/// (the online advisor diffs two breakdown snapshots per tick).  `lost` and
/// `dispatch` are the lost-runtime and dispatch-wait wall sums over the
/// same window.  Results are sorted by severity, descending.
std::vector<Diagnosis> diagnose_breakdown(const RuntimeBreakdown& breakdown,
                                          double lost, double dispatch,
                                          const AdvisorThresholds& thresholds);

class Monitor {
 public:
  /// `bin_seconds` sets the timeline resolution.
  explicit Monitor(double bin_seconds = 600.0);

  // ---- ingest ---------------------------------------------------------------

  /// Record a finished task (status must be terminal).
  void on_task_finished(const TaskRecord& record);
  /// Record an instantaneous gauge of concurrently running tasks.
  void sample_running(double now, std::size_t running);

  // ---- queries ---------------------------------------------------------------

  [[nodiscard]] RuntimeBreakdown breakdown() const { return breakdown_; }
  [[nodiscard]] std::uint64_t tasks_seen() const { return seen_; }
  [[nodiscard]] std::uint64_t tasks_failed() const { return failures_; }
  [[nodiscard]] std::uint64_t tasks_evicted() const { return evictions_; }
  /// Wall sums the diagnosis rules consume alongside the breakdown; exposed
  /// so the online advisor can window them (delta between two ticks).
  [[nodiscard]] double lost_time() const { return lost_; }
  [[nodiscard]] double dispatch_time() const { return dispatch_; }

  [[nodiscard]] const util::TimeSeries& completed_timeline() const {
    return completed_;
  }
  [[nodiscard]] const util::TimeSeries& failed_timeline() const {
    return failed_;
  }
  [[nodiscard]] const util::TimeSeries& running_timeline() const {
    return running_;
  }
  /// CPU-time/wall-clock ratio per bin (the bottom panel of Figure 10).
  /// Bins with no finished wall time report 0, not NaN.
  [[nodiscard]] std::vector<double> efficiency_timeline() const;
  /// Mean env-setup time per completion bin (second panel of Figure 11).
  /// Empty bins report 0, not NaN.
  [[nodiscard]] std::vector<double> setup_time_timeline() const;
  /// Mean stage-out time per completion bin (third panel of Figure 11).
  /// Empty bins report 0, not NaN.
  [[nodiscard]] std::vector<double> stageout_time_timeline() const;

  /// Run the §5 rules against the aggregated statistics.
  std::vector<Diagnosis> diagnose(const AdvisorThresholds& thresholds = {}) const;

 private:
  double bin_;
  RuntimeBreakdown breakdown_;
  std::uint64_t seen_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t evictions_ = 0;
  double lost_ = 0.0;
  double dispatch_ = 0.0;
  util::TimeSeries completed_;
  util::TimeSeries failed_;
  util::TimeSeries running_;
  util::TimeSeries cpu_in_bin_;
  util::TimeSeries wall_in_bin_;
  util::TimeSeries setup_in_bin_;
  util::TimeSeries setup_count_;
  util::TimeSeries stageout_in_bin_;
  util::TimeSeries stageout_count_;
};

}  // namespace lobster::core
