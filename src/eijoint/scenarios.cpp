#include "eijoint/scenarios.hpp"

#include "eijoint/model.hpp"

namespace fmtree::eijoint {

fmt::CorrectivePolicy standard_corrective() {
  fmt::CorrectivePolicy c;
  c.enabled = true;
  c.delay = 0.02;               // ~1 week from failure to renewed joint
  c.cost = 8000.0;              // emergency renewal + penalty
  c.downtime_cost_rate = 50000.0;  // traffic disruption per year of downtime
  return c;
}

maintenance::MaintenancePolicy current_policy() {
  maintenance::MaintenancePolicy p;
  p.name = "current-4x";
  p.inspection_period = 0.25;  // quarterly
  p.inspection_cost = 35.0;
  p.replacement_period = 0.0;  // no periodic renewal in force
  p.replacement_cost = 0.0;
  p.corrective = standard_corrective();
  return p;
}

maintenance::MaintenancePolicy corrective_only() {
  maintenance::MaintenancePolicy p = current_policy();
  p.name = "corrective-only";
  p.inspection_period = 0.0;
  return p;
}

maintenance::MaintenancePolicy inspections_per_year(double per_year) {
  maintenance::MaintenancePolicy p = current_policy();
  if (per_year <= 0) return corrective_only();
  p.name = std::to_string(per_year) + "x-per-year";
  p.inspection_period = 1.0 / per_year;
  return p;
}

maintenance::MaintenancePolicy with_renewal(double years) {
  maintenance::MaintenancePolicy p = current_policy();
  p.name = "current+renewal-" + std::to_string(static_cast<int>(years)) + "y";
  p.replacement_period = years;
  p.replacement_cost = 5500.0;  // planned renewal, much cheaper than emergency
  return p;
}

std::vector<maintenance::MaintenancePolicy> paper_strategies() {
  std::vector<maintenance::MaintenancePolicy> strategies;
  strategies.push_back(corrective_only());
  auto named = [](maintenance::MaintenancePolicy p, const char* name) {
    p.name = name;
    return p;
  };
  strategies.push_back(named(inspections_per_year(1), "1x-per-year"));
  strategies.push_back(named(inspections_per_year(2), "2x-per-year"));
  strategies.push_back(named(inspections_per_year(4), "current-4x"));
  strategies.push_back(named(inspections_per_year(8), "8x-per-year"));
  strategies.push_back(named(inspections_per_year(12), "12x-per-year"));
  strategies.push_back(with_renewal(15));
  return strategies;
}

std::vector<double> cost_curve_frequencies() {
  return {0, 0.5, 1, 2, 3, 4, 6, 8, 12, 24};
}

batch::SweepPlan cost_curve_plan(const EiJointParameters& params,
                                 const smc::AnalysisSettings& settings) {
  batch::SweepPlan plan;
  plan.jobs = maintenance::frequency_jobs(build_ei_joint(params, current_policy()),
                                          cost_curve_frequencies(), settings);
  plan.threads = settings.threads;
  plan.control = settings.control;
  return plan;
}

}  // namespace fmtree::eijoint
