// F5 — Expected number of failures per joint-year vs inspection frequency,
// with the per-mode attribution under the current policy.
// Expected shape: monotone decreasing with diminishing returns; the floor is
// set by the undetectable impact-damage mode.
#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"

using namespace fmtree;

int main() {
  bench::header("F5", "Expected failures per joint-year vs inspection frequency",
                "claim C2: failure count analysable; diminishing returns");
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const smc::AnalysisSettings settings = bench::default_settings(20.0, 8000);

  TextTable t({"inspections/yr", "E[failures]/yr (95% CI)", "reliability(20y)",
               "repairs/yr"});
  t.set_alignment({Align::Right, Align::Right, Align::Right, Align::Right});
  std::vector<double> rates;
  for (double freq : eijoint::cost_curve_frequencies()) {
    const smc::KpiReport k = smc::analyze(
        eijoint::build_ei_joint(params, eijoint::inspections_per_year(freq)), settings);
    rates.push_back(k.failures_per_year.point);
    t.add_row({cell(freq, 1), bench::ci_cell(k.failures_per_year, 4),
               cell(k.reliability.point, 3),
               cell(k.mean_repairs / settings.horizon, 2)});
  }
  t.print(std::cout);

  bool monotone = true;
  for (std::size_t i = 1; i < rates.size(); ++i)
    if (rates[i] > rates[i - 1] * 1.02) monotone = false;  // 2% noise slack
  std::cout << "\nShape check (failure rate nonincreasing in frequency): "
            << (monotone ? "PASS" : "FAIL") << "\n";

  // Attribution under the current policy.
  const fmt::FaultMaintenanceTree current =
      eijoint::build_ei_joint(params, eijoint::current_policy());
  const smc::KpiReport k = smc::analyze(current, settings);
  std::cout << "\nFailure attribution under current-4x (per joint-year):\n";
  TextTable attr({"failure mode", "failures/yr", "share"});
  attr.set_alignment({Align::Left, Align::Right, Align::Right});
  double total = 0;
  for (double f : k.failures_per_leaf) total += f;
  for (std::size_t i = 0; i < k.failures_per_leaf.size(); ++i) {
    const double rate = k.failures_per_leaf[i] / settings.horizon;
    attr.add_row({current.ebes()[i].name, cell(rate, 4),
                  cell(100.0 * k.failures_per_leaf[i] / total, 1) + "%"});
  }
  attr.print(std::cout);
  return monotone ? 0 : 1;
}
