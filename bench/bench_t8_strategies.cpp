// T8 — KPI summary per named maintenance strategy (the paper's strategy
// comparison table): reliability, failures, availability, cost.
#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"

using namespace fmtree;

int main() {
  bench::header("T8", "Strategy comparison: reliability / failures / cost",
                "claims C2+C4: one model, all KPIs; current ~ cost-optimal");
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const smc::AnalysisSettings settings = bench::default_settings(20.0, 8000);

  TextTable t({"strategy", "R(20y)", "E[failures]/yr", "availability", "insp+rep/yr",
               "failures cost/yr", "total cost/yr"});
  t.set_alignment({Align::Left, Align::Right, Align::Right, Align::Right,
                   Align::Right, Align::Right, Align::Right});
  double current_cost = 0, best_cost = 1e300;
  for (const maintenance::MaintenancePolicy& policy : eijoint::paper_strategies()) {
    const smc::KpiReport k =
        smc::analyze(eijoint::build_ei_joint(params, policy), settings);
    const fmt::CostBreakdown per_year = k.mean_cost / settings.horizon;
    const double planned = per_year.inspection + per_year.repair + per_year.replacement;
    const double unplanned = per_year.corrective + per_year.downtime;
    t.add_row({policy.name, cell(k.reliability.point, 3),
               cell(k.failures_per_year.point, 4), cell(k.availability.point, 5),
               cell(planned, 0), cell(unplanned, 0),
               cell(k.cost_per_year.point, 0)});
    best_cost = std::min(best_cost, k.cost_per_year.point);
    if (policy.name == "current-4x") current_cost = k.cost_per_year.point;
  }
  t.print(std::cout);

  const bool near_optimal = current_cost <= 1.15 * best_cost;
  std::cout << "\nShape check (current-4x within 15% of the cheapest strategy): "
            << (near_optimal ? "PASS" : "FAIL") << "\n";
  return near_optimal ? 0 : 1;
}
