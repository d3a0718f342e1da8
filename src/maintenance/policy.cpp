#include "maintenance/policy.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace fmtree::maintenance {

std::string inspection_frequency_label(double per_year) {
  if (per_year == 0) return "no-inspection";
  std::ostringstream name;
  name << per_year << "x-per-year";
  return name.str();
}

std::vector<batch::SweepJob> frequency_jobs(const fmt::FaultMaintenanceTree& model,
                                            const std::vector<double>& per_year,
                                            const smc::AnalysisSettings& settings) {
  if (per_year.empty()) throw DomainError("need at least one inspection frequency");
  std::vector<batch::SweepJob> jobs;
  jobs.reserve(per_year.size());
  for (double f : per_year) {
    if (!(f >= 0 && std::isfinite(f)))
      throw DomainError("inspection frequency must be finite and >= 0");
    if (f > 0 && model.inspections().empty())
      throw DomainError("model has no inspection modules to sweep");
    batch::SweepJob job{inspection_frequency_label(f), model, settings};
    if (f == 0) {
      job.model.clear_inspections();
    } else {
      for (std::size_t i = 0; i < job.model.inspections().size(); ++i)
        job.model.set_inspection_schedule(i, 1.0 / f);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::size_t cheapest(std::span<const batch::JobResult> results) {
  std::size_t best = results.size();
  double best_cost = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double cost = results[i].report.cost_per_year.point;
    if (results[i].completed && (best == results.size() || cost < best_cost)) {
      best = i;
      best_cost = cost;
    }
  }
  return best;
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
