// Synthetic data generation from a ground-truth FMT — the stand-in for the
// paper's two data sources:
//
//  * generate_incidents(): an incident registration database (system-level
//    failures of a simulated fleet under the model's own maintenance
//    policy), the analogue of ProRail's incident registration;
//  * elicit_degradation(): per-mode degradation durations (time to reach
//    the inspection threshold, total time to failure) as an expert-
//    elicitation dataset, the analogue of interviewing maintenance
//    engineers about how fast each mode progresses.
#pragma once

#include <cstdint>
#include <vector>

#include "data/incident.hpp"
#include "fmt/fmtree.hpp"

namespace fmtree::data {

/// Simulates `num_assets` independent assets for `years` under the model's
/// maintenance policy, recording every system failure with its attributed
/// mode. Asset i is trajectory i of the kernel: CounterStream(seed, i).
IncidentDatabase generate_incidents(const fmt::FaultMaintenanceTree& ground_truth,
                                    std::uint32_t num_assets, double years,
                                    std::uint64_t seed);

/// A fleet observation window: the incident registration plus the
/// aggregated maintenance-management records (inspection and renewal
/// counts) — the paper's second data source.
struct FleetData {
  IncidentDatabase incidents;
  std::uint64_t inspections = 0;
  std::uint64_t replacements = 0;

  double exposure() const noexcept { return incidents.exposure(); }
};

/// As generate_incidents, but also collects the maintenance records of the
/// same trajectories (identical seeds: generate_fleet_data(...).incidents
/// equals generate_incidents(...)).
FleetData generate_fleet_data(const fmt::FaultMaintenanceTree& ground_truth,
                              std::uint32_t num_assets, double years,
                              std::uint64_t seed);

/// Elicited degradation durations of one failure mode.
struct DegradationSample {
  double time_to_threshold = 0.0;  ///< time to reach the inspection threshold
  double time_to_failure = 0.0;    ///< total unmaintained lifetime
};

/// Draws `n` independent unmaintained degradation trajectories of the given
/// leaf (by sampling its phase sojourns directly; maintenance and RDEPs do
/// not apply to elicitation data).
std::vector<DegradationSample> elicit_degradation(
    const fmt::FaultMaintenanceTree& ground_truth, fmt::NodeId leaf, std::size_t n,
    std::uint64_t seed);

}  // namespace fmtree::data
