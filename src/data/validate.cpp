#include "data/validate.hpp"

#include "util/error.hpp"

namespace fmtree::data {

namespace {

bool overlap(const RateEstimate& a, const ConfidenceInterval& b) {
  return a.lo <= b.hi && b.lo <= a.hi;
}

}  // namespace

ValidationReport validate_against(const fmt::FaultMaintenanceTree& model,
                                  const IncidentDatabase& holdout,
                                  const smc::AnalysisSettings& settings) {
  // Predict with the same horizon as the observation window so that
  // edge effects (e.g. the first inspection offset) match.
  smc::AnalysisSettings s = settings;
  s.horizon = holdout.observation_years();
  const smc::KpiReport kpis = smc::analyze(model, s);

  ValidationReport report;
  report.trajectories = kpis.trajectories;

  report.system.label = "system";
  report.system.observed =
      estimate_rate(holdout.size(), holdout.exposure(), settings.confidence);
  report.system.predicted = kpis.failures_per_year;
  report.system.intervals_overlap =
      overlap(report.system.observed, report.system.predicted);

  // Per-mode: predicted mean failures per leaf / horizon. The Monte-Carlo
  // error of a per-leaf mean is bounded by the system-level half-width, and
  // per-leaf counts are 0/1-ish per trajectory, so a Wilson-style interval
  // from the attributed counts would need the raw counts; approximate with
  // a Poisson interval on the simulated totals instead.
  const double sim_exposure =
      static_cast<double>(kpis.trajectories) * holdout.observation_years();
  const auto observed_by_mode = holdout.counts_by_mode();
  for (std::size_t leaf = 0; leaf < model.num_ebes(); ++leaf) {
    const std::string& mode = model.ebes()[leaf].name;
    const double mean_failures = kpis.failures_per_leaf[leaf];
    const auto simulated_events = static_cast<std::uint64_t>(
        mean_failures * static_cast<double>(kpis.trajectories) + 0.5);
    const RateEstimate predicted =
        estimate_rate(simulated_events, sim_exposure, settings.confidence);
    const auto it = observed_by_mode.find(mode);
    const std::uint64_t observed_events = it == observed_by_mode.end() ? 0 : it->second;

    ValidationRow row;
    row.label = mode;
    row.observed =
        estimate_rate(observed_events, holdout.exposure(), settings.confidence);
    row.predicted = {predicted.rate, predicted.lo, predicted.hi, predicted.confidence};
    row.intervals_overlap = overlap(row.observed, row.predicted);
    report.modes.push_back(std::move(row));
  }
  return report;
}

}  // namespace fmtree::data
