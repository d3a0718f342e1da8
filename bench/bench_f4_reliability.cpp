// F4 — System reliability over time per maintenance strategy.
// Expected shape: curves are ordered by inspection intensity; every curve is
// nonincreasing; diminishing returns between 4x and 12x.
#include <vector>

#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"

using namespace fmtree;

int main() {
  bench::header("F4", "Reliability R(t) per maintenance strategy, 0-50 years",
                "claim C1/C2: more inspections -> higher joint reliability");
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const std::vector<maintenance::MaintenancePolicy> strategies{
      eijoint::corrective_only(), eijoint::inspections_per_year(1),
      eijoint::inspections_per_year(2), eijoint::current_policy(),
      eijoint::inspections_per_year(12)};
  const std::vector<double> grid = smc::linspace_grid(50.0, 10);

  std::vector<std::string> headers{"t (years)"};
  for (const auto& s : strategies) headers.push_back("R(t) " + s.name);
  TextTable t(headers);
  t.set_alignment(std::vector<Align>(headers.size(), Align::Right));

  std::vector<std::vector<smc::CurvePoint>> curves;
  for (const auto& strategy : strategies) {
    curves.push_back(smc::reliability_curve(eijoint::build_ei_joint(params, strategy),
                                            grid, bench::default_settings(50.0, 6000)));
  }
  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::vector<std::string> row{cell(grid[g], 0)};
    for (const auto& curve : curves) row.push_back(cell(curve[g].value.point, 4));
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  // Shape check the paper's claim: at t = 25y, reliability is monotone in
  // inspection frequency.
  const std::size_t mid = grid.size() / 2;
  bool monotone = true;
  for (std::size_t s = 1; s < curves.size(); ++s)
    if (curves[s][mid].value.point < curves[s - 1][mid].value.point) monotone = false;
  std::cout << "\nShape check (R(25y) monotone in inspection frequency): "
            << (monotone ? "PASS" : "FAIL") << "\n";
  return monotone ? 0 : 1;
}
