// Maintenance strategies as data: a policy describes how often a system is
// inspected and renewed and at what cost, independent of the system's
// failure structure. Model builders (e.g. eijoint::build_ei_joint) turn a
// policy into the concrete maintenance modules of an FMT, which lets the
// optimizer sweep policies without knowing the model.
#pragma once

#include <functional>
#include <string>

#include "fmt/fmtree.hpp"

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

/// Builds a concrete FMT implementing a policy. Provided by each case study.
using ModelFactory = std::function<fmt::FaultMaintenanceTree(const MaintenancePolicy&)>;

/// Applies a policy's modules to an existing FMT whose structure is already
/// built: one inspection module over all inspectable leaves, one replacement
/// module over all leaves, and the corrective policy. Convenience for model
/// builders.
void apply_policy(fmt::FaultMaintenanceTree& model, const MaintenancePolicy& policy);

}  // namespace fmtree::maintenance
