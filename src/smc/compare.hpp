// Paired comparison of two FMT variants under common random numbers, and
// quantiles of the time-to-failure distribution.
//
// Comparing two maintenance policies with independent runs wastes most of
// the sample budget on noise both variants share (the same degradation luck).
// Running trajectory i of both variants from the same CounterStream(seed, i)
// and estimating the per-trajectory *difference* cancels that shared noise,
// giving far tighter confidence intervals on "which policy is better".
//
// Both estimators set up their kernels through smc::Simulation (so a
// scripted settings.policy applies) and run them through smc::simulate like
// analyze(): they count their trajectories in settings.telemetry and stop at
// settings.control over the completed trajectory prefix, or with a
// ResourceLimitError when no trajectory completed.
#pragma once

#include <cstdint>
#include <vector>

#include "fmt/fmtree.hpp"
#include "smc/kpi.hpp"

namespace fmtree::smc {

/// Paired difference estimates: positive means A exceeds B.
struct PairedComparison {
  ConfidenceInterval failures_diff;  ///< E[failures_A - failures_B]
  ConfidenceInterval cost_diff;      ///< E[cost_A - cost_B]
  ConfidenceInterval downtime_diff;  ///< E[downtime_A - downtime_B]
  /// Pairs compared: after a stop, the prefix both variants completed.
  std::uint64_t trajectories = 0;
  StopReason stop_reason = StopReason::None;  ///< why the pairs ended short

  /// True iff the CI on the failure difference excludes zero.
  bool failures_significantly_different() const noexcept {
    return !failures_diff.contains(0.0);
  }
  bool cost_significantly_different() const noexcept {
    return !cost_diff.contains(0.0);
  }
};

/// Runs both models on identical random streams and returns paired
/// difference CIs (A minus B). The variants run block by block over the
/// same trajectory range, so memory does not grow with the trajectory count
/// and a stop leaves the pairs of the blocks before it.
PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings);

/// Time-to-first-failure quantiles, one per requested probability.
struct FailureQuantiles {
  std::vector<double> values;
  /// Trajectories they cover: after a stop, the completed prefix.
  std::uint64_t trajectories = 0;
  StopReason stop_reason = StopReason::None;  ///< why the pass ended short
};

/// Quantiles of the time-to-first-failure distribution. A requested quantile
/// that falls beyond the observed horizon (because too many trajectories
/// survive) is reported as +infinity.
FailureQuantiles failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                        const std::vector<double>& probabilities,
                                        const AnalysisSettings& settings);

}  // namespace fmtree::smc
