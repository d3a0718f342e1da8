#include "smc/kpi.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "lang/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace fmtree::smc {

void validate_settings(const AnalysisSettings& s) {
  if (!(s.horizon > 0 && std::isfinite(s.horizon)))
    throw DomainError("analysis horizon must be positive and finite");
  if (s.trajectories == 0) throw DomainError("need at least one trajectory");
  if (!(s.confidence > 0 && s.confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  if (!(s.discount_rate >= 0 && std::isfinite(s.discount_rate)))
    throw DomainError("discount rate must be finite and non-negative");
  if (s.target_relative_error > 0 && s.batch == 0)
    throw DomainError("adaptive stopping needs a positive batch");
}

PoolOutcome simulate(std::span<PoolJob> jobs, const AnalysisSettings& settings,
                     std::uint64_t simulated_before) {
  PoolOptions options;
  options.threads = settings.threads;
  options.control = settings.control;
  options.simulated_before = simulated_before;
  options.telemetry = settings.telemetry;
  auto span = obs::maybe_span(settings.telemetry.tracer, "simulate");
  const PoolOutcome outcome = run_pool(jobs, options);
  span.close();
  if (obs::MetricsRegistry* metrics = settings.telemetry.metrics)
    metrics->add(obs::Metric::SmcBatches, 1);
  for (const PoolJob& job : jobs)
    if (job.error) std::rethrow_exception(job.error);
  return outcome;
}

namespace {

/// A scripted policy simulates the apply_policy transform of the model: its
/// calendars become the inspection modules.
std::optional<fmt::FaultMaintenanceTree> policy_transform(
    const fmt::FaultMaintenanceTree& model, const AnalysisSettings& settings) {
  if (!settings.policy) return std::nullopt;
  return lang::apply_policy(*settings.policy, model);
}

}  // namespace

Simulation::Simulation(const fmt::FaultMaintenanceTree& model,
                       const AnalysisSettings& settings)
    : transformed_(policy_transform(model, settings)),
      executor_(transformed_ ? *transformed_ : model),
      seed_(settings.seed),
      trajectories_(settings.trajectories) {
  options_.horizon = settings.horizon;
  options_.discount_rate = settings.discount_rate;
  if (settings.policy) {
    bound_.emplace(lang::bind_policy(*settings.policy, executor_.model()));
    options_.bound_policy = &*bound_;
  }
}

PoolJob Simulation::job(Fold fold) const {
  return {.executor = &executor_, .options = &options_, .seed = seed_,
          .trajectories = trajectories_, .fold = std::move(fold)};
}

PoolJob Simulation::job(AnalysisFold& fold) const {
  return job([&fold](sim::TrajectoryResult& r) { return fold.add(r); });
}

AnalysisFold::AnalysisFold(const AnalysisSettings& settings, Observer observe)
    : settings_(settings),
      observe_(std::move(observe)),
      z_(normal_quantile(0.5 + settings.confidence / 2.0)) {}

bool AnalysisFold::add(sim::TrajectoryResult& r) {
  failures_.add(static_cast<double>(r.failures));
  observe_(r);
  const AnalysisSettings& s = settings_;
  if (!(s.target_relative_error > 0) || failures_.count() % s.batch != 0) return true;
  const bool have_ci = failures_.count() >= 2 && failures_.mean() > 0;
  const double half = have_ci ? z_ * failures_.std_error() : 0.0;
  // The CI-trend snapshot of every adaptive round: how tight the estimate
  // is versus the requested target.
  if (obs::ProgressReporter* progress = s.telemetry.progress) {
    obs::Progress p;
    p.phase = "simulate";
    p.done = failures_.count();
    p.total = s.trajectories;
    p.ci_half_width = have_ci ? half / failures_.mean() : -1.0;
    p.ci_target = s.target_relative_error;
    progress->update(p);
  }
  return !(have_ci && half <= s.target_relative_error * failures_.mean());
}

KpiFold::KpiFold(const AnalysisSettings& settings, std::size_t leaves)
    : AnalysisFold(settings, [this](sim::TrajectoryResult& r) { observe(r); }),
      failures_per_leaf_(leaves, 0),
      repairs_per_leaf_(leaves, 0) {}

void KpiFold::observe(const sim::TrajectoryResult& r) {
  const double horizon = settings().horizon;
  availability_.add(1.0 - r.downtime / horizon);
  total_cost_.add(r.cost.total());
  npv_cost_.add(r.discounted_cost.total());
  inspections_.add(static_cast<double>(r.inspections));
  repairs_.add(static_cast<double>(r.repairs));
  replacements_.add(static_cast<double>(r.replacements));
  cost_sum_ += r.cost;
  if (r.first_failure_time > horizon) ++survived_;
  for (std::size_t leaf = 0; leaf < failures_per_leaf_.size(); ++leaf) {
    failures_per_leaf_[leaf] += r.failures_per_leaf[leaf];
    repairs_per_leaf_[leaf] += r.repairs_per_leaf[leaf];
  }
}

namespace {

ConfidenceInterval scale(const ConfidenceInterval& ci, double factor) {
  return {ci.point * factor, ci.lo * factor, ci.hi * factor, ci.confidence};
}

/// Runs one analysis job through simulate() and returns why it ended short
/// (None when the fold saw every trajectory it asked for). Opens the "build"
/// span.
StopReason collect(const fmt::FaultMaintenanceTree& model, const AnalysisSettings& s,
                   AnalysisFold& fold) {
  auto build_span = obs::maybe_span(s.telemetry.tracer, "build");
  const Simulation simulation(model, s);
  build_span.close();

  PoolJob job = simulation.job(fold);
  const PoolOutcome outcome = simulate({&job, 1}, s);
  // simulate() counted one batch; an adaptive run counts its rounds of
  // `batch` trajectories.
  obs::MetricsRegistry* metrics = s.telemetry.metrics;
  if (metrics != nullptr && s.target_relative_error > 0) {
    const std::uint64_t rounds = (job.folded + s.batch - 1) / s.batch;
    if (rounds > 1) metrics->add(obs::Metric::SmcBatches, rounds - 1);
  }
  return job.finished() ? StopReason::None : outcome.stop_reason;
}

}  // namespace

KpiReport KpiFold::report(StopReason stop) const {
  const std::uint64_t count = folded();
  if (count == 0)
    throw ResourceLimitError("run stopped (" + std::string(stop_reason_name(stop)) +
                                 ") before any trajectory completed",
                             {});
  const AnalysisSettings& s = settings();
  const auto n = static_cast<double>(count);

  KpiReport report;
  report.horizon = s.horizon;
  report.trajectories = count;
  report.truncated = stop != StopReason::None;
  report.stop_reason = stop;
  report.reliability = wilson_interval(survived_, count, s.confidence);
  report.expected_failures = failures().mean_ci(s.confidence);
  report.failures_per_year = scale(report.expected_failures, 1.0 / s.horizon);
  report.availability = availability_.mean_ci(s.confidence);
  report.total_cost = total_cost_.mean_ci(s.confidence);
  report.cost_per_year = scale(report.total_cost, 1.0 / s.horizon);
  report.npv_cost = npv_cost_.mean_ci(s.confidence);
  report.mean_cost = cost_sum_ / n;
  report.mean_inspections = inspections_.mean();
  report.mean_repairs = repairs_.mean();
  report.mean_replacements = replacements_.mean();

  report.failures_per_leaf.reserve(failures_per_leaf_.size());
  for (std::uint64_t f : failures_per_leaf_)
    report.failures_per_leaf.push_back(static_cast<double>(f) / n);
  report.repairs_per_leaf.reserve(repairs_per_leaf_.size());
  for (std::uint64_t r : repairs_per_leaf_)
    report.repairs_per_leaf.push_back(static_cast<double>(r) / n);
  return report;
}

std::vector<double> linspace_grid(double horizon, std::size_t n) {
  if (!(horizon > 0) || n == 0) throw DomainError("bad linspace_grid arguments");
  std::vector<double> grid;
  grid.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i)
    grid.push_back(horizon * static_cast<double>(i) / static_cast<double>(n));
  return grid;
}

KpiReport analyze(const fmt::FaultMaintenanceTree& model,
                  const AnalysisSettings& settings) {
  validate_settings(settings);
  KpiFold fold(settings, model.num_ebes());
  const StopReason stop = collect(model, settings, fold);
  auto aggregate_span = obs::maybe_span(settings.telemetry.tracer, "aggregate");
  return fold.report(stop);
}

std::vector<CurvePoint> reliability_curve(const fmt::FaultMaintenanceTree& model,
                                          const std::vector<double>& grid,
                                          const AnalysisSettings& settings) {
  validate_settings(settings);
  if (grid.empty()) throw DomainError("empty grid");
  AnalysisSettings s = settings;
  s.horizon = *std::max_element(grid.begin(), grid.end());
  if (!(s.horizon > 0)) s.horizon = settings.horizon;
  // Survivors at each grid point: trajectories whose first failure lies
  // after it.
  std::vector<std::uint64_t> survivors(grid.size(), 0);
  AnalysisFold fold(s, [&](const sim::TrajectoryResult& r) {
    for (std::size_t g = 0; g < grid.size(); ++g)
      if (r.first_failure_time > grid[g]) ++survivors[g];
  });
  collect(model, s, fold);
  auto aggregate_span = obs::maybe_span(settings.telemetry.tracer, "aggregate");

  std::vector<CurvePoint> out;
  out.reserve(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g)
    out.push_back(CurvePoint{
        grid[g], wilson_interval(survivors[g], fold.folded(), settings.confidence)});
  return out;
}

}  // namespace fmtree::smc
