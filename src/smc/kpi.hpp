// Key performance indicators of a fault maintenance tree, estimated by
// statistical model checking (Monte-Carlo simulation with confidence
// intervals) — the analysis layer of the DSN'16 EI-joint study: system
// reliability, expected number of failures, expected cost, availability.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fmt/fmtree.hpp"
#include "lang/runtime.hpp"
#include "obs/telemetry.hpp"
#include "smc/pool.hpp"
#include "util/stats.hpp"

namespace fmtree::smc {

/// Monte-Carlo analysis settings. A stop via `control` returns early over the
/// completed trajectory prefix — statistics stay exact for the streams they
/// cover — and the report is flagged `truncated`.
struct AnalysisSettings {
  /// Analysis time horizon in the model's time unit (the study: years).
  double horizon = 10.0;
  /// Base RNG seed; trajectory i draws from CounterStream(seed, i).
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Optional scripted maintenance policy (compiled from the policy DSL,
  /// see src/lang). When set, analysis runs replace the model's built-in
  /// inspection modules with the script's calendars and the kernel invokes
  /// the compiled rules at every inspection event. The compiled form's
  /// fingerprint — not the script text — enters the settings fingerprint,
  /// so reformatting a script preserves cache keys while any semantic
  /// change (thresholds, calendars, budgets) invalidates them, and a
  /// scripted run never shares a cache entry with a built-in one.
  std::shared_ptr<const lang::CompiledPolicy> policy;
  /// Optional cooperative stop handle (SIGINT, deadlines, budgets);
  /// nullptr = run to completion. See smc/run_control.hpp.
  const RunControl* control = nullptr;
  /// Optional telemetry sinks (metrics, tracing, progress); disabled by
  /// default. Telemetry is observational: enabling it changes no analysis
  /// output bit. See obs/telemetry.hpp and DESIGN.md, "Observability".
  obs::Telemetry telemetry;
  std::uint64_t trajectories = 10000;
  double confidence = 0.95;
  /// Continuous discount rate for net-present-value cost reporting
  /// (KpiReport::npv_cost); 0 disables discounting.
  double discount_rate = 0.0;
  /// If > 0: keep simulating until the CI half-width of E[#failures] is
  /// <= target_relative_error * mean, checked after every `batch`
  /// trajectories, or until `trajectories` is reached; `trajectories` then
  /// acts as the budget cap.
  double target_relative_error = 0.0;
  std::uint64_t batch = 2048;
};

/// Everything the case study reports, from one set of trajectories.
struct KpiReport {
  double horizon = 0.0;
  std::uint64_t trajectories = 0;
  /// True when a RunControl stopped the run early; `trajectories` then holds
  /// the completed prefix the statistics are exact over.
  bool truncated = false;
  StopReason stop_reason = StopReason::None;

  ConfidenceInterval reliability;       ///< P(no system failure in [0, horizon])
  ConfidenceInterval expected_failures; ///< E[#failures in [0, horizon]]
  ConfidenceInterval failures_per_year; ///< expected_failures / horizon
  ConfidenceInterval availability;      ///< E[uptime fraction]
  ConfidenceInterval total_cost;        ///< E[total cost over horizon]
  ConfidenceInterval cost_per_year;     ///< total_cost / horizon
  ConfidenceInterval npv_cost;          ///< E[discounted cost] (== total_cost at rate 0)

  fmt::CostBreakdown mean_cost;         ///< expectation of each component
  double mean_inspections = 0.0;        ///< rounds per trajectory
  double mean_repairs = 0.0;
  double mean_replacements = 0.0;

  /// E[system failures attributed to leaf i] (model.leaves() order).
  std::vector<double> failures_per_leaf;
  /// E[condition-based repairs of leaf i].
  std::vector<double> repairs_per_leaf;
};

/// Runs the Monte-Carlo analysis and aggregates all KPIs: validate_settings,
/// then a KpiFold over a Simulation of the model, as one job on the pool.
KpiReport analyze(const fmt::FaultMaintenanceTree& model,
                  const AnalysisSettings& settings);

/// Rejects nonsensical settings with DomainError: a non-positive or
/// infinite horizon, zero trajectories, confidence outside (0,1), a negative
/// or non-finite discount rate, and adaptive stopping
/// (target_relative_error > 0) with a zero batch. analyze() calls this;
/// other executors (the batch sweep engine) share the same contract.
void validate_settings(const AnalysisSettings& settings);

/// Runs `jobs` on the pool with the settings' threads, control and
/// telemetry, inside a "simulate" span, and rethrows the first failed job's
/// error on the caller's thread. `simulated_before` trajectories of earlier
/// runs count towards the control's trajectory budget. Every smc estimator
/// simulates through it, so each one counts its trajectories in smc.*, and
/// each call counts one smc.batches.
PoolOutcome simulate(std::span<PoolJob> jobs, const AnalysisSettings& settings,
                     std::uint64_t simulated_before = 0);

class AnalysisFold;

/// One analysis's model made ready for the pool: the apply_policy transform
/// and bound policy of a scripted run, the kernel and its options. Every smc
/// estimator and every pooled sweep job sets up its kernel through this
/// type, so they all simulate the same event sequence per trajectory.
class Simulation {
public:
  /// `model` must outlive the simulation. Throws what apply_policy and
  /// bind_policy throw for a policy the model cannot carry.
  Simulation(const fmt::FaultMaintenanceTree& model, const AnalysisSettings& settings);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// A pool job over the settings' seed and trajectory count, folded by
  /// `fold`.
  PoolJob job(Fold fold) const;
  /// The same, folded by an AnalysisFold (which must outlive the job).
  PoolJob job(AnalysisFold& fold) const;

private:
  std::optional<fmt::FaultMaintenanceTree> transformed_;
  sim::BatchExecutor executor_;
  std::optional<lang::BoundPolicy> bound_;
  sim::SimOptions options_;
  std::uint64_t seed_ = 0;
  std::uint64_t trajectories_ = 0;
};

/// The fold behind every smc estimator. It hands each trajectory to the
/// estimator's `observe` callback, keeps the running statistics of the
/// failure count, and implements adaptive stopping: with
/// target_relative_error > 0 it ends the job after the first multiple of
/// `batch` folded trajectories at which the CI half-width of E[#failures]
/// is within the target, reporting that CI through
/// settings.telemetry.progress at every such multiple.
class AnalysisFold {
public:
  using Observer = std::function<void(sim::TrajectoryResult&)>;
  AnalysisFold(const AnalysisSettings& settings, Observer observe);
  AnalysisFold(const AnalysisFold&) = delete;  // `observe` may capture `this`
  AnalysisFold& operator=(const AnalysisFold&) = delete;

  /// Folds the next trajectory; false once adaptive stopping ends the run.
  bool add(sim::TrajectoryResult& r);
  std::uint64_t folded() const noexcept { return failures_.count(); }
  const AnalysisSettings& settings() const noexcept { return settings_; }
  const RunningStats& failures() const noexcept { return failures_; }

private:
  AnalysisSettings settings_;
  Observer observe_;
  RunningStats failures_;
  double z_ = 0.0;
};

/// Folds trajectories into the full KPI report. It is the aggregation of
/// analyze() and of every pooled sweep job, so a job's report depends only
/// on its settings, never on the thread count or which path ran it.
class KpiFold final : public AnalysisFold {
public:
  KpiFold(const AnalysisSettings& settings, std::size_t leaves);
  /// The report over the folded trajectories, flagged truncated when `stop`
  /// is not None. Throws ResourceLimitError when none was folded.
  KpiReport report(StopReason stop = StopReason::None) const;

private:
  void observe(const sim::TrajectoryResult& r);

  RunningStats availability_, total_cost_, npv_cost_;
  RunningStats inspections_, repairs_, replacements_;
  fmt::CostBreakdown cost_sum_;
  std::uint64_t survived_ = 0;
  std::vector<std::uint64_t> failures_per_leaf_, repairs_per_leaf_;
};

/// One point of an estimated curve.
struct CurvePoint {
  double t = 0.0;
  ConfidenceInterval value;
};

/// Reliability curve: P(first failure > t) for each t in `grid`, from one
/// set of trajectories with horizon = max(grid). Wilson intervals.
std::vector<CurvePoint> reliability_curve(const fmt::FaultMaintenanceTree& model,
                                          const std::vector<double>& grid,
                                          const AnalysisSettings& settings);

/// Evenly spaced grid helper: n+1 points 0, h/n, ..., h.
std::vector<double> linspace_grid(double horizon, std::size_t n);

}  // namespace fmtree::smc
