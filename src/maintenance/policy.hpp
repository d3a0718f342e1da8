// Maintenance strategies as data: a policy describes how often a system is
// inspected and renewed and at what cost, independent of the system's
// failure structure. Model builders (e.g. eijoint::build_ei_joint) turn a
// policy into the concrete maintenance modules of an FMT. An
// inspection-frequency sweep edits one built model instead: frequency_jobs
// reschedules its inspection modules, one sweep job per frequency, and
// cheapest picks the cost-optimal result.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "batch/sweep.hpp"
#include "fmt/fmtree.hpp"
#include "smc/kpi.hpp"

namespace fmtree::maintenance {

/// A named maintenance strategy. Periods <= 0 disable the mechanism.
struct MaintenancePolicy {
  std::string name;

  double inspection_period = 0.0;  ///< time between inspections; <=0: none
  double inspection_cost = 0.0;    ///< cost of one inspection round

  double replacement_period = 0.0; ///< time between preventive renewals; <=0: none
  double replacement_cost = 0.0;   ///< cost of one preventive renewal

  fmt::CorrectivePolicy corrective{};  ///< reaction to system failure

  bool has_inspections() const noexcept { return inspection_period > 0; }
  bool has_replacements() const noexcept { return replacement_period > 0; }
  double inspections_per_year() const noexcept {
    return has_inspections() ? 1.0 / inspection_period : 0.0;
  }
};

/// The name of a policy inspecting `per_year` times a year: "no-inspection"
/// for 0, else "<per_year>x-per-year" (default stream formatting, e.g.
/// "0.5x-per-year"). Sweep job labels use it.
std::string inspection_frequency_label(double per_year);

/// The inspection-frequency sweep of `model`: one job per entry of
/// `per_year`, in order, labelled inspection_frequency_label(f), running a
/// copy of `model` under `settings`. For f > 0 every inspection module of
/// the copy inspects with period 1/f, first round at 1/f; for f = 0 the copy
/// has no inspection modules. Throws DomainError on an empty list, a
/// negative or non-finite frequency, and f > 0 for a model without
/// inspection modules. Every frequency sweep (fmtree sweep, the daemon, the
/// library cost curve) builds its jobs here, so equal settings give equal
/// cache keys.
std::vector<batch::SweepJob> frequency_jobs(const fmt::FaultMaintenanceTree& model,
                                            const std::vector<double>& per_year,
                                            const smc::AnalysisSettings& settings);

/// The index of the completed result with the lowest cost_per_year.point
/// (the first one on a tie), or results.size() when none completed.
std::size_t cheapest(std::span<const batch::JobResult> results);

/// Applies a policy's modules to an existing FMT whose structure is already
/// built: one inspection module over all inspectable leaves, one replacement
/// module over all leaves, and the corrective policy. Convenience for model
/// builders.
void apply_policy(fmt::FaultMaintenanceTree& model, const MaintenancePolicy& policy);

}  // namespace fmtree::maintenance
