#include "smc/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace fmtree::smc {

namespace {

/// Runs the jobs on settings.threads workers; a failed job rethrows here.
void run_jobs(std::span<PoolJob> jobs, const AnalysisSettings& settings) {
  PoolOptions options;
  options.threads = settings.threads;
  run_pool(jobs, options);
  for (const PoolJob& job : jobs)
    if (job.error) std::rethrow_exception(job.error);
}

}  // namespace

PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings) {
  if (!(settings.horizon > 0)) throw DomainError("horizon must be positive");
  if (settings.trajectories == 0) throw DomainError("need at least one trajectory");
  const sim::BatchExecutor kernel_a(a);
  const sim::BatchExecutor kernel_b(b);
  sim::SimOptions opts;
  opts.horizon = settings.horizon;

  // Same (seed, stream) per index: trajectory i of both variants experiences
  // the same random draws in the same order as long as their executions
  // agree, which is what cancels shared noise. Each variant keeps only the
  // per-trajectory values the pairing differences.
  struct Values {
    std::vector<double> failures, cost, downtime;
  } va, vb;
  const auto job = [&](const sim::BatchExecutor& kernel, Values& v) {
    PoolJob j{.executor = &kernel, .options = &opts, .seed = settings.seed,
              .trajectories = settings.trajectories};
    j.fold = [&v](sim::TrajectoryResult& r) {
      v.failures.push_back(static_cast<double>(r.failures));
      v.cost.push_back(r.cost.total());
      v.downtime.push_back(r.downtime);
      return true;
    };
    return j;
  };
  PoolJob jobs[] = {job(kernel_a, va), job(kernel_b, vb)};
  run_jobs(jobs, settings);

  RunningStats failures, cost, downtime;
  for (std::size_t i = 0; i < va.failures.size(); ++i) {
    failures.add(va.failures[i] - vb.failures[i]);
    cost.add(va.cost[i] - vb.cost[i]);
    downtime.add(va.downtime[i] - vb.downtime[i]);
  }
  PairedComparison out;
  out.failures_diff = failures.mean_ci(settings.confidence);
  out.cost_diff = cost.mean_ci(settings.confidence);
  out.downtime_diff = downtime.mean_ci(settings.confidence);
  out.trajectories = va.failures.size();
  return out;
}

std::vector<double> failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                           const std::vector<double>& probabilities,
                                           const AnalysisSettings& settings) {
  if (probabilities.empty()) throw DomainError("need at least one probability");
  for (double p : probabilities)
    if (!(p >= 0 && p <= 1)) throw DomainError("quantile probability outside [0,1]");
  const sim::BatchExecutor kernel(model);
  sim::SimOptions opts;
  opts.horizon = settings.horizon;
  std::vector<double> times;  // first failure times, +inf for survivors
  PoolJob job{.executor = &kernel, .options = &opts, .seed = settings.seed,
              .trajectories = settings.trajectories};
  job.fold = [&times](sim::TrajectoryResult& r) {
    times.push_back(r.first_failure_time);
    return true;
  };
  run_jobs({&job, 1}, settings);
  std::sort(times.begin(), times.end());

  std::vector<double> out;
  out.reserve(probabilities.size());
  for (double p : probabilities) {
    const double pos = p * static_cast<double>(times.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double lo = times[idx];
    const double hi = times[std::min(idx + 1, times.size() - 1)];
    if (std::isinf(lo) || std::isinf(hi)) {
      out.push_back(std::numeric_limits<double>::infinity());
    } else {
      const double frac = pos - static_cast<double>(idx);
      out.push_back(lo * (1 - frac) + hi * frac);
    }
  }
  return out;
}

}  // namespace fmtree::smc
