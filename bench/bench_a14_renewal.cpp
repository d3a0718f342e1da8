// A14 — Should the EI-joint be preventively renewed? Sweep of the periodic
// replacement interval on top of the current inspection policy.
// Expected shape: the joint's detectable modes are already controlled by
// condition-based repairs and the undetectable impact mode is memoryless
// (renewal cannot help it), so preventive renewal adds cost at every
// period — consistent with the study's "extra maintenance is not worth it".
#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"

using namespace fmtree;

int main() {
  bench::header("A14", "Preventive renewal period sweep (on top of current-4x)",
                "claim C4 corollary: periodic renewal does not pay off");
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const smc::AnalysisSettings settings = bench::default_settings(30.0, 8000);

  const smc::KpiReport baseline =
      smc::analyze(eijoint::build_ei_joint(params, eijoint::current_policy()), settings);

  TextTable t({"renewal period (y)", "E[failures]/yr", "renewal cost/yr",
               "total cost/yr", "delta vs no renewal"});
  t.set_alignment({Align::Right, Align::Right, Align::Right, Align::Right,
                   Align::Right});
  t.add_row({"never", cell(baseline.failures_per_year.point, 4), "0",
             cell(baseline.cost_per_year.point, 0), "-"});
  bool renewal_never_pays = true;
  for (double period : {30.0, 20.0, 15.0, 10.0, 5.0}) {
    const smc::KpiReport k = smc::analyze(
        eijoint::build_ei_joint(params, eijoint::with_renewal(period)), settings);
    const double delta = k.cost_per_year.point - baseline.cost_per_year.point;
    if (delta < 0) renewal_never_pays = false;
    t.add_row({cell(period, 0), cell(k.failures_per_year.point, 4),
               cell(k.mean_cost.replacement / settings.horizon, 0),
               cell(k.cost_per_year.point, 0),
               (delta >= 0 ? "+" : "") + cell(delta, 0)});
  }
  t.print(std::cout);

  std::cout << "\nReading: renewals do cut failures slightly (the wear-out\n"
               "modes restart from new), but the avoided failure cost never\n"
               "approaches the renewal spend; the memoryless impact mode is\n"
               "untouched by renewal.\n"
            << "Shape check (no renewal period beats the current policy): "
            << (renewal_never_pays ? "PASS" : "FAIL") << "\n";
  return renewal_never_pays ? 0 : 1;
}
