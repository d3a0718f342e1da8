#include "fleet/fleet.hpp"

#include <algorithm>

#include "lang/policy.hpp"
#include "obs/metrics.hpp"

namespace fmtree::fleet {

batch::SweepPlan fleet_plan(const Corridor& corridor, const FleetOptions& options) {
  batch::SweepPlan plan;
  plan.threads = options.threads;
  plan.max_retries = options.max_retries;
  plan.stall_timeout_s = options.stall_timeout_s;
  plan.control = options.settings.control;
  plan.jobs.reserve(corridor.joints.size());
  for (const CorridorJoint& joint : corridor.joints) {
    batch::SweepJob job;
    job.label = joint.name;
    job.model = joint.model;
    job.settings = options.settings;
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

FleetKpis aggregate_fleet(const Corridor& corridor,
                          std::span<const JointSummary> summaries,
                          const FleetOptions& options) {
  FleetKpis kpis;
  kpis.corridor_length_km = corridor.length_km();

  for (const JointSummary& joint : summaries) {
    const smc::KpiReport& r = joint.report;
    if (r.trajectories == 0) continue;  // failed shard: no data to sum
    ++kpis.joints;
    kpis.failures_per_year += r.failures_per_year.point;
    kpis.cost_per_year += r.cost_per_year.point;
    const double per_year = r.horizon > 0 ? 1.0 / r.horizon : 0.0;
    kpis.inspections_per_year += r.mean_inspections * per_year;
    kpis.repairs_per_year += r.mean_repairs * per_year;
    kpis.replacements_per_year += r.mean_replacements * per_year;
  }
  if (kpis.corridor_length_km > 0)
    kpis.cost_per_km_year = kpis.cost_per_year / kpis.corridor_length_km;

  // Crew demand: repairs ride along on inspection visits (condition-based
  // maintenance), so visits = inspection rounds + corrective call-outs
  // (one per expected system failure) + preventive replacement visits.
  kpis.crew_visits_per_year = kpis.inspections_per_year + kpis.failures_per_year +
                              kpis.replacements_per_year;
  kpis.crew_capacity_per_year = static_cast<double>(options.resources.crews) *
                                options.resources.visits_per_crew_year;
  if (kpis.crew_capacity_per_year > 0)
    kpis.crew_utilisation = kpis.crew_visits_per_year / kpis.crew_capacity_per_year;

  // Budget composition with the policy DSL: each joint runs its own copy of
  // the scripted budgets, so the corridor budget is joints x the annualised
  // refill of every refilling budget.
  if (const auto& policy = options.settings.policy) {
    double refill_per_year = 0.0;
    for (const lang::Budget& b : policy->budgets)
      if (b.refill_period > 0) refill_per_year += b.refill_amount / b.refill_period;
    kpis.budget_per_year = refill_per_year * static_cast<double>(kpis.joints);
    if (kpis.budget_per_year > 0)
      kpis.budget_utilisation = kpis.cost_per_year / kpis.budget_per_year;
  }

  // Worst-k by expected failures/yr, worst first, corridor order on ties.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < summaries.size(); ++i)
    if (summaries[i].report.trajectories > 0) order.push_back(i);
  const std::size_t k = std::min(options.worst_k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      const double fa = summaries[a].report.failures_per_year.point;
                      const double fb = summaries[b].report.failures_per_year.point;
                      return fa != fb ? fa > fb : a < b;
                    });
  order.resize(k);
  kpis.worst = std::move(order);
  return kpis;
}

FleetOutcome fleet_outcome(const Corridor& corridor,
                           std::span<const batch::JobResult> results,
                           std::vector<Diagnostic> warnings, const FleetOptions& options,
                           obs::MetricsRegistry* metrics) {
  FleetOutcome fleet;
  fleet.warnings = std::move(warnings);
  fleet.joints.reserve(corridor.joints.size());
  for (std::size_t i = 0; i < corridor.joints.size(); ++i) {
    JointSummary summary;
    summary.name = corridor.joints[i].name;
    summary.scale = corridor.joints[i].scale;
    if (i < results.size()) {
      const batch::JobResult& result = results[i];
      ++(result.cache_hit ? fleet.cache_hits : fleet.cache_misses);
      if (result.completed) {
        summary.report = result.report;
      } else if (result.failed) {
        ++fleet.jobs_failed;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.code = "F101";
        d.message = "fleet shard '" + summary.name + "' failed [" + result.failure.kind +
                    "]: " + result.failure.message;
        d.hint = "the joint is excluded from the corridor aggregates";
        fleet.warnings.push_back(std::move(d));
      } else if (!result.cancelled) {
        fleet.truncated = true;
      }
    }
    fleet.joints.push_back(std::move(summary));
  }
  fleet.kpis = aggregate_fleet(corridor, fleet.joints, options);
  if (metrics != nullptr) {
    metrics->add(obs::Metric::FleetJoints, corridor.joints.size());
    metrics->add(obs::Metric::FleetJobsFailed, fleet.jobs_failed);
  }
  return fleet;
}

FleetOutcome analyze_fleet(const Corridor& corridor, const FleetOptions& options,
                           batch::ResultCache* cache,
                           const obs::Telemetry& telemetry) {
  batch::SweepOutcome outcome =
      batch::run_sweep(fleet_plan(corridor, options), cache, telemetry);
  return fleet_outcome(corridor, outcome.results, std::move(outcome.warnings), options,
                       telemetry.metrics);
}

}  // namespace fmtree::fleet
