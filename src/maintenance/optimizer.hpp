// Maintenance optimization: sweep a policy dimension, estimate the yearly
// cost of each candidate, and locate the optimum — the machinery behind the
// paper's finding that the current EI-joint policy is close to cost-optimal.
#pragma once

#include <vector>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "maintenance/policy.hpp"
#include "smc/kpi.hpp"

namespace fmtree::maintenance {

/// One evaluated policy on the cost curve.
struct PolicyEvaluation {
  MaintenancePolicy policy;
  smc::KpiReport kpis;

  double cost_per_year() const noexcept { return kpis.cost_per_year.point; }
};

struct SweepResult {
  std::vector<PolicyEvaluation> curve;  ///< in the order the candidates were given
  std::size_t best_index = 0;           ///< argmin of cost_per_year

  const PolicyEvaluation& best() const { return curve.at(best_index); }
};

/// The candidates as a sweep plan: one job per candidate, labelled by the
/// policy name, running factory(candidate) under `settings`. The plan's
/// threads and control come from `settings`; run_sweep ignores the jobs'
/// own copies of control and telemetry.
batch::SweepPlan policy_plan(const ModelFactory& factory,
                             const std::vector<MaintenancePolicy>& candidates,
                             const smc::AnalysisSettings& settings);

/// Evaluates every candidate policy with the same settings (same seed, so
/// curves are comparable) and returns the cost curve plus the cost-optimal
/// candidate. Candidates must be non-empty.
///
/// All candidates are simulated over one shared trajectory pool
/// (batch::run_sweep), so the wall-clock cost is that of the total
/// trajectory count, not of the slowest candidate times the candidate
/// count. Results are bit-identical to evaluating each candidate with
/// smc::analyze. When `cache` is non-null, previously computed candidates
/// are served from it and fresh evaluations are stored back.
///
/// If settings.control stops the run, candidates that did not finish carry
/// kpis.truncated == true with default (zero) KPI values and are excluded
/// from the best-candidate selection.
SweepResult sweep_policies(const ModelFactory& factory,
                           const std::vector<MaintenancePolicy>& candidates,
                           const smc::AnalysisSettings& settings,
                           batch::ResultCache* cache = nullptr);

/// Convenience: candidates that differ from `base` only in inspection
/// frequency (inspections per year, 0 = none). Names are
/// inspection_frequency_label(f).
std::vector<MaintenancePolicy> inspection_frequency_candidates(
    const MaintenancePolicy& base, const std::vector<double>& frequencies_per_year);

}  // namespace fmtree::maintenance
