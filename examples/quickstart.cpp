// Quickstart: build a small fault maintenance tree, analyse its KPIs with
// smc::analyze, and compare maintenance strategies in one sweep.
//
// The system is a two-component pump skid: the pump wears through 4
// degradation phases (visible from phase 3, repairable by overhaul), the
// controller fails abruptly (undetectable). The system fails when either
// fails.
#include <iostream>
#include <string>

#include "batch/sweep.hpp"
#include "smc/kpi.hpp"
#include "util/table.hpp"

using namespace fmtree;

namespace {

fmt::FaultMaintenanceTree build_pump_skid(double inspections_per_year) {
  fmt::FaultMaintenanceTree model;

  // Pump: Erlang(4) wear over a mean of 8 years; degradation becomes visible
  // at phase 3; an overhaul (cost 500) restores it to new.
  const auto pump = model.add_ebe(
      "pump", fmt::DegradationModel::erlang(/*phases=*/4, /*mean_ttf=*/8.0,
                                            /*threshold_phase=*/3),
      fmt::RepairSpec{"overhaul", 500.0});

  // Controller: memoryless failure, mean 20 years, nothing to inspect.
  const auto controller =
      model.add_basic_event("controller", Distribution::exponential(1.0 / 20.0));

  model.set_top(model.add_or("skid_failure", {pump, controller}));

  if (inspections_per_year > 0) {
    model.add_inspection(fmt::InspectionModule{
        "visual", 1.0 / inspections_per_year, -1.0, /*cost=*/50.0, {pump}});
  }

  // A failure costs 10000 and takes ~2 weeks to fix.
  model.set_corrective(fmt::CorrectivePolicy{true, 0.04, 10000.0, 0.0});
  return model;
}

}  // namespace

int main() {
  // This first block is the README's opening sample: the settings of a run,
  // then every KPI from a single call.
  smc::AnalysisSettings settings;
  settings.horizon = 10.0;
  settings.trajectories = 20000;
  settings.seed = 42;
  const smc::KpiReport k =
      smc::analyze(build_pump_skid(/*inspections_per_year=*/4.0), settings);
  std::cout << "With quarterly inspections: R(10y) = " << k.reliability.point
            << ", cost/yr = " << k.cost_per_year.point << "\n\n";

  // Comparing strategies = one job per candidate model, same settings. The
  // four jobs form one sweep plan and share one trajectory pool; each job's
  // report is bit-identical to what smc::analyze returns for its model.
  batch::SweepPlan plan;
  for (double freq : {0.0, 1.0, 2.0, 4.0}) {
    batch::SweepJob& job = plan.jobs.emplace_back();
    job.label = freq == 0 ? "no inspections"
                          : std::to_string(static_cast<int>(freq)) + "x/year";
    job.model = build_pump_skid(freq);
    job.settings = settings;
  }
  const batch::SweepOutcome outcome = batch::run_sweep(plan);

  TextTable table({"strategy", "reliability(10y)", "E[failures]/y", "availability",
                   "cost/yr"});
  table.set_alignment({Align::Left, Align::Right, Align::Right, Align::Right,
                       Align::Right});
  for (const batch::JobResult& r : outcome.results) {
    table.add_row({r.label, cell(r.report.reliability.point, 4),
                   cell(r.report.failures_per_year.point, 4),
                   cell(r.report.availability.point, 5),
                   cell(r.report.cost_per_year.point, 0)});
  }
  std::cout << "Pump-skid FMT, 10-year horizon, " << 20000 << " runs:\n\n";
  table.print(std::cout);
  std::cout << "\nMore inspections catch pump wear before it fails; the\n"
               "controller's memoryless failures set the floor.\n";
  return 0;
}
