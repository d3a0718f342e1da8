#include "maintenance/optimizer.hpp"

#include <cmath>
#include <utility>

#include "batch/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace fmtree::maintenance {

namespace {

void count_evaluation(const smc::AnalysisSettings& settings) {
  if (obs::MetricsRegistry* metrics = settings.telemetry.metrics)
    metrics->add(obs::Metric::OptimizerEvaluations);
}

}  // namespace

batch::SweepPlan policy_plan(const ModelFactory& factory,
                             const std::vector<MaintenancePolicy>& candidates,
                             const smc::AnalysisSettings& settings) {
  batch::SweepPlan plan;
  plan.threads = settings.threads;
  plan.control = settings.control;
  plan.jobs.reserve(candidates.size());
  for (const MaintenancePolicy& policy : candidates)
    plan.jobs.push_back({policy.name, factory(policy), settings, nullptr});
  return plan;
}

SweepResult sweep_policies(const ModelFactory& factory,
                           const std::vector<MaintenancePolicy>& candidates,
                           const smc::AnalysisSettings& settings,
                           batch::ResultCache* cache) {
  if (candidates.empty()) throw DomainError("policy sweep needs candidates");
  batch::SweepOutcome outcome = batch::run_sweep(
      policy_plan(factory, candidates, settings), cache, settings.telemetry);

  SweepResult result;
  result.curve.reserve(candidates.size());
  bool have_best = false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    batch::JobResult& job = outcome.results[i];
    if (!job.completed) {
      job.report.truncated = true;
      job.report.stop_reason = outcome.stop_reason;
    }
    result.curve.push_back(PolicyEvaluation{candidates[i], std::move(job.report)});
    count_evaluation(settings);
    if (job.completed &&
        (!have_best || result.curve[i].cost_per_year() <
                           result.curve[result.best_index].cost_per_year())) {
      result.best_index = i;
      have_best = true;
    }
  }
  return result;
}

std::vector<MaintenancePolicy> inspection_frequency_candidates(
    const MaintenancePolicy& base, const std::vector<double>& frequencies_per_year) {
  if (frequencies_per_year.empty())
    throw DomainError("need at least one inspection frequency");
  std::vector<MaintenancePolicy> out;
  out.reserve(frequencies_per_year.size());
  for (double f : frequencies_per_year) {
    if (f < 0 || !std::isfinite(f))
      throw DomainError("inspection frequency must be finite and >= 0");
    MaintenancePolicy p = base;
    p.inspection_period = f == 0 ? 0.0 : 1.0 / f;
    p.name = inspection_frequency_label(f);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace fmtree::maintenance
