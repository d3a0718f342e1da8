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
#include <functional>
#include <vector>

#include "data/incident.hpp"
#include "fmt/fmtree.hpp"
#include "smc/run_control.hpp"

namespace fmtree::data {

/// Simulates `num_assets` independent assets for `years` under the model's
/// maintenance policy and hands every system failure, with its attributed
/// mode, to `sink`: asset by asset in asset order, each asset's in time
/// order. Asset i is trajectory i of the kernel: CounterStream(seed, i).
/// Memory does not grow with the asset or record count. A stop at `control`
/// ends the run after a prefix of whole assets. Returns the number of
/// assets simulated.
std::uint32_t generate_incidents(const fmt::FaultMaintenanceTree& ground_truth,
                                 std::uint32_t num_assets, double years,
                                 std::uint64_t seed,
                                 const std::function<void(const IncidentRecord&)>& sink,
                                 const smc::RunControl* control = nullptr);

/// The same records, collected into a database.
IncidentDatabase generate_incidents(const fmt::FaultMaintenanceTree& ground_truth,
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
