// The data pipeline: generate a synthetic incident-registration database and
// expert-elicitation datasets from a ground-truth model, fit degradation
// parameters from the elicited durations, and validate the calibrated model
// against a held-out incident database — the substitute for the paper's
// ProRail data sources (see DESIGN.md, Substitutions).
#include <iostream>

#include "data/estimate.hpp"
#include "data/generator.hpp"
#include "data/stream.hpp"
#include "data/validate.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "util/table.hpp"

using namespace fmtree;

int main() {
  const fmt::FaultMaintenanceTree truth = eijoint::build_ei_joint(
      eijoint::EiJointParameters::defaults(), eijoint::current_policy());

  // 1. "Incident registration": a fleet of joints observed for a decade.
  const data::IncidentDatabase incidents =
      data::generate_incidents(truth, /*num_assets=*/2000, /*years=*/10.0, 2016);
  std::cout << "Incident database: " << incidents.size() << " failures over "
            << incidents.exposure() << " joint-years ("
            << cell(incidents.failure_rate(), 4) << "/joint-yr)\n\n";
  std::cout << "Incidents by attributed mode:\n";
  TextTable modes({"mode", "incidents", "rate/joint-yr (95% CI)"});
  modes.set_alignment({Align::Left, Align::Right, Align::Right});
  for (const auto& [mode, count] : incidents.counts_by_mode()) {
    const data::RateEstimate r = data::estimate_rate(count, incidents.exposure());
    modes.add_row({mode, cell(count),
                   cell(r.rate, 4) + " [" + cell(r.lo, 4) + ", " + cell(r.hi, 4) + "]"});
  }
  modes.print(std::cout);

  // Persist / reload round-trip, as a real study would.
  {
    data::IncidentStreamWriter out("incidents.csv");
    for (const data::IncidentRecord& r : incidents.records()) out.add(r);
    out.close();
  }
  std::cout << "\n(wrote incidents.csv)\n";

  // 2. "Expert interviews": per-mode degradation durations, fitted to
  //    Erlang phase models.
  std::cout << "\nFitting 'lipping' from 2000 elicited degradation histories:\n";
  const auto samples = data::elicit_degradation(truth, *truth.find("lipping"), 2000, 7);
  const fmt::DegradationModel fitted = data::fit_degradation(samples);
  const fmt::DegradationModel& real = truth.ebe(*truth.find("lipping")).degradation;
  std::cout << "  true:   " << real.phases() << " phases, mean "
            << cell(real.mean_time_to_failure(), 2) << "y, threshold phase "
            << real.threshold_phase() << "\n"
            << "  fitted: " << fitted.phases() << " phases, mean "
            << cell(fitted.mean_time_to_failure(), 2) << "y, threshold phase "
            << fitted.threshold_phase() << "\n";

  // 3. Validation against a held-out database (fresh seed).
  const data::IncidentDatabase holdout =
      data::generate_incidents(truth, 2000, 10.0, 40407);
  smc::AnalysisSettings settings;
  settings.trajectories = 10000;
  settings.seed = 99;
  const data::ValidationReport report =
      data::validate_against(truth, holdout, settings);
  std::cout << "\nValidation against a held-out incident database:\n"
            << "  observed:  " << cell(report.system.observed.rate, 4)
            << " failures/joint-yr [" << cell(report.system.observed.lo, 4) << ", "
            << cell(report.system.observed.hi, 4) << "]\n"
            << "  predicted: " << cell(report.system.predicted.point, 4) << " ["
            << cell(report.system.predicted.lo, 4) << ", "
            << cell(report.system.predicted.hi, 4) << "]\n"
            << "  verdict:   "
            << (report.system.intervals_overlap ? "model matches the field data"
                                                : "MISMATCH")
            << "\n";
  return report.system.intervals_overlap ? 0 : 1;
}
