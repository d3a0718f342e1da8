// The maintenance-strategy catalogue of the case study: the policy in force
// ("current": quarterly visual inspections + corrective renewal) and the
// alternatives the paper compares it against.
#pragma once

#include <vector>

#include "batch/sweep.hpp"
#include "eijoint/params.hpp"
#include "maintenance/policy.hpp"

namespace fmtree::eijoint {

/// Corrective reaction shared by all strategies: a failed joint is renewed
/// after a short logistic delay, at significant cost (emergency crew,
/// penalty, traffic disruption).
fmt::CorrectivePolicy standard_corrective();

/// Quarterly visual inspections, no periodic renewal — the policy in force.
maintenance::MaintenancePolicy current_policy();

/// No inspections, no renewal; failures fixed correctively.
maintenance::MaintenancePolicy corrective_only();

/// Inspections `per_year` times a year (0 = corrective only).
maintenance::MaintenancePolicy inspections_per_year(double per_year);

/// Current policy plus periodic renewal of the whole joint every `years`.
maintenance::MaintenancePolicy with_renewal(double years);

/// The strategy set compared in the study, in presentation order:
/// corrective-only, 1x, 2x, 4x (current), 8x, 12x per year, and
/// current + 15-year renewal.
std::vector<maintenance::MaintenancePolicy> paper_strategies();

/// Inspection frequencies (per year) swept for the cost curve.
std::vector<double> cost_curve_frequencies();

/// The paper's cost-curve sweep as a batch plan: maintenance::frequency_jobs
/// of the EI-joint under current_policy() over cost_curve_frequencies(), all
/// under the same settings so the curve is seed-comparable, with the plan's
/// threads and control taken from the settings. Its jobs and cache keys are
/// those of `fmtree sweep models/ei_joint.fmt` at equal settings. Run it
/// with batch::run_sweep.
batch::SweepPlan cost_curve_plan(const EiJointParameters& params,
                                 const smc::AnalysisSettings& settings);

}  // namespace fmtree::eijoint
