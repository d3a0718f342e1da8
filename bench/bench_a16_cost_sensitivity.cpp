// A16 — Sensitivity of the cost-optimal inspection frequency to the failure
// cost. The paper's conclusion ("current policy close to cost-optimal")
// hinges on the corrective cost estimate; this ablation shows how the
// optimum moves when a failure is cheaper or dearer than assumed.
// Expected shape: the optimal frequency is nondecreasing in the failure
// cost — dearer failures justify more inspections.
#include "batch/sweep.hpp"
#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "maintenance/policy.hpp"

using namespace fmtree;

int main() {
  bench::header("A16", "Optimal inspection frequency vs failure cost",
                "robustness of claim C4 to the corrective-cost estimate");
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const std::vector<double> frequencies = eijoint::cost_curve_frequencies();
  const smc::AnalysisSettings settings = bench::default_settings(20.0, 8000);

  TextTable t({"failure cost multiplier", "corrective cost", "optimal insp/yr",
               "optimal cost/yr", "current(4x) cost/yr", "current gap"});
  t.set_alignment({Align::Right, Align::Right, Align::Right, Align::Right,
                   Align::Right, Align::Right});
  std::vector<double> optima;
  for (double multiplier : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    maintenance::MaintenancePolicy base = eijoint::current_policy();
    base.corrective.cost *= multiplier;
    base.corrective.downtime_cost_rate *= multiplier;
    batch::SweepPlan plan;
    plan.jobs = maintenance::frequency_jobs(eijoint::build_ei_joint(params, base),
                                            frequencies, settings);
    const batch::SweepOutcome sweep = batch::run_sweep(plan);
    const std::size_t best = maintenance::cheapest(sweep.results);
    const double opt_freq = frequencies.at(best);
    const double opt_cost = sweep.results[best].report.cost_per_year.point;
    optima.push_back(opt_freq);
    double current_cost = 0;
    for (std::size_t i = 0; i < frequencies.size(); ++i)
      if (frequencies[i] == 4.0)
        current_cost = sweep.results[i].report.cost_per_year.point;
    t.add_row({cell(multiplier, 2), cell(base.corrective.cost, 0), cell(opt_freq, 1),
               cell(opt_cost, 0), cell(current_cost, 0),
               cell(100.0 * (current_cost / opt_cost - 1), 1) + "%"});
  }
  t.print(std::cout);

  bool nondecreasing = true;
  for (std::size_t i = 1; i < optima.size(); ++i)
    if (optima[i] < optima[i - 1]) nondecreasing = false;
  std::cout << "\nShape check (optimal frequency nondecreasing in failure cost): "
            << (nondecreasing ? "PASS" : "FAIL") << "\n";
  return nondecreasing ? 0 : 1;
}
