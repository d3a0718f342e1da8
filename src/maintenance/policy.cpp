#include "maintenance/policy.hpp"

#include <sstream>

#include "util/error.hpp"

namespace fmtree::maintenance {

std::string inspection_frequency_label(double per_year) {
  if (per_year == 0) return "no-inspection";
  std::ostringstream name;
  name << per_year << "x-per-year";
  return name.str();
}

void apply_policy(fmt::FaultMaintenanceTree& model, const MaintenancePolicy& policy) {
  if (policy.has_inspections()) {
    std::vector<fmt::NodeId> inspectable;
    for (fmt::NodeId leaf : model.leaves())
      if (model.ebe(leaf).degradation.inspectable()) inspectable.push_back(leaf);
    if (inspectable.empty())
      throw ModelError("policy '" + policy.name +
                       "' has inspections but no leaf is inspectable");
    model.add_inspection(fmt::InspectionModule{
        policy.name.empty() ? "inspection" : policy.name + "-inspection",
        policy.inspection_period, -1.0, policy.inspection_cost,
        std::move(inspectable)});
  }
  if (policy.has_replacements()) {
    std::vector<fmt::NodeId> all(model.leaves().begin(), model.leaves().end());
    model.add_replacement(fmt::ReplacementModule{
        policy.name.empty() ? "renewal" : policy.name + "-renewal",
        policy.replacement_period, -1.0, policy.replacement_cost, std::move(all)});
  }
  model.set_corrective(policy.corrective);
}

}  // namespace fmtree::maintenance
