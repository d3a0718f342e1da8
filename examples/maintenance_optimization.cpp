// Maintenance optimization: sweep the inspection frequency of the EI-joint,
// print the yearly cost curve, and locate the cost-optimal policy — the
// analysis behind the paper's conclusion that the current policy is close
// to cost-optimal.
#include <iostream>
#include <vector>

#include "batch/sweep.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "maintenance/policy.hpp"
#include "util/table.hpp"

using namespace fmtree;

int main() {
  const std::vector<double> frequencies{0, 0.5, 1, 2, 3, 4, 6, 8, 12};

  smc::AnalysisSettings settings;
  settings.horizon = 20.0;
  settings.trajectories = 10000;
  settings.seed = 7;

  // One built model, its inspections rescheduled per frequency: at equal
  // settings these are the jobs and cache keys of `fmtree sweep`.
  batch::SweepPlan plan;
  plan.jobs = maintenance::frequency_jobs(
      eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                              eijoint::current_policy()),
      frequencies, settings);
  std::cout << "Sweeping inspection frequency (" << plan.jobs.size()
            << " candidates, " << settings.trajectories << " runs each)...\n\n";
  const batch::SweepOutcome sweep = batch::run_sweep(plan);
  const std::size_t best = maintenance::cheapest(sweep.results);

  TextTable t({"policy", "failures/yr", "planned cost/yr", "unplanned cost/yr",
               "total/yr"});
  t.set_alignment({Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right});
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const batch::JobResult& r = sweep.results[i];
    const fmt::CostBreakdown py = r.report.mean_cost / settings.horizon;
    t.add_row({r.label + (i == best ? "  <== optimum" : ""),
               cell(r.report.failures_per_year.point, 4),
               cell(py.inspection + py.repair + py.replacement, 0),
               cell(py.corrective + py.downtime, 0),
               cell(r.report.cost_per_year.point, 0)});
  }
  t.print(std::cout);

  const batch::JobResult& optimum = sweep.results.at(best);
  std::cout << "\nCost-optimal policy: " << optimum.label << " at "
            << cell(optimum.report.cost_per_year.point, 0) << "/yr.\n"
            << "Increasing inspections beyond the optimum still reduces\n"
            << "failures, but the added inspection and repair spend outweighs\n"
            << "the avoided failure cost - the paper's central trade-off.\n";
  return 0;
}
