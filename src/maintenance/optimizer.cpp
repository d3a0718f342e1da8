#include "maintenance/optimizer.hpp"

#include <cmath>
#include <utility>

#include "batch/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace fmtree::maintenance {

namespace {

void count_evaluation(const smc::AnalysisSettings& settings) {
  if (obs::MetricsRegistry* metrics = settings.telemetry.metrics)
    metrics->add(metrics->counter("optimizer.evaluations"));
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

RefinedOptimum refine_inspection_frequency(const ModelFactory& factory,
                                           const MaintenancePolicy& base, double lo,
                                           double hi,
                                           const smc::AnalysisSettings& settings,
                                           int iterations, batch::ResultCache* cache) {
  if (!(lo > 0) || !(hi > lo)) throw DomainError("need 0 < lo < hi");
  if (iterations < 1) throw DomainError("need at least one iteration");
  auto refine_span = obs::maybe_span(settings.telemetry.tracer, "refine");

  // Golden-section evaluates two probes up front, then one per iteration.
  const auto total_evaluations = static_cast<std::uint64_t>(iterations) + 2;
  std::size_t evaluations = 0;
  const auto cost_at = [&](double freq) {
    MaintenancePolicy p = base;
    p.inspection_period = 1.0 / freq;
    ++evaluations;
    const fmt::FaultMaintenanceTree model = factory(p);
    double cost = 0.0;
    if (cache != nullptr) {
      const batch::CacheKey key = batch::kpi_cache_key(model, settings);
      // A quarantined entry's C101 is dropped: the refinement reports
      // only its optimum.
      if (std::optional<smc::KpiReport> hit = cache->get(key, /*quarantined=*/nullptr)) {
        cost = hit->cost_per_year.point;
      } else {
        const smc::KpiReport report = smc::analyze(model, settings);
        cache->put(key, report);  // refuses truncated reports itself
        cost = report.cost_per_year.point;
      }
    } else {
      cost = smc::analyze(model, settings).cost_per_year.point;
    }
    count_evaluation(settings);
    if (obs::ProgressReporter* progress = settings.telemetry.progress) {
      obs::Progress p2;
      p2.phase = "refine";
      p2.done = evaluations;
      p2.total = total_evaluations;
      progress->update(p2);
    }
    return cost;
  };

  constexpr double kInvPhi = 0.61803398874989484;  // 1/golden ratio
  double a = lo, b = hi;
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = cost_at(c);
  double fd = cost_at(d);
  for (int it = 0; it < iterations; ++it) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = cost_at(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = cost_at(d);
    }
  }
  RefinedOptimum out;
  out.frequency = fc < fd ? c : d;
  out.cost_per_year = std::min(fc, fd);
  out.evaluations = evaluations;
  return out;
}

}  // namespace fmtree::maintenance
