#include "smc/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "smc/runner.hpp"
#include "util/error.hpp"

namespace fmtree::smc {

PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings) {
  if (!(settings.horizon > 0)) throw DomainError("horizon must be positive");
  if (settings.trajectories == 0) throw DomainError("need at least one trajectory");
  const ParallelRunner runner_a(a, settings.threads);
  const ParallelRunner runner_b(b, settings.threads);
  sim::SimOptions opts;
  opts.horizon = settings.horizon;

  // Same (seed, stream) per index: trajectory i of both variants experiences
  // the same random draws in the same order as long as their executions
  // agree, which is what cancels shared noise.
  const BatchResult ra = runner_a.run(settings.seed, 0, settings.trajectories, opts);
  const BatchResult rb = runner_b.run(settings.seed, 0, settings.trajectories, opts);

  RunningStats failures, cost, downtime;
  for (std::size_t i = 0; i < ra.summaries.size(); ++i) {
    failures.add(static_cast<double>(ra.summaries[i].failures) -
                 static_cast<double>(rb.summaries[i].failures));
    cost.add(ra.summaries[i].cost.total() - rb.summaries[i].cost.total());
    downtime.add(ra.summaries[i].downtime - rb.summaries[i].downtime);
  }
  PairedComparison out;
  out.failures_diff = failures.mean_ci(settings.confidence);
  out.cost_diff = cost.mean_ci(settings.confidence);
  out.downtime_diff = downtime.mean_ci(settings.confidence);
  out.trajectories = ra.summaries.size();
  return out;
}

std::vector<double> failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                           const std::vector<double>& probabilities,
                                           const AnalysisSettings& settings) {
  if (probabilities.empty()) throw DomainError("need at least one probability");
  for (double p : probabilities)
    if (!(p >= 0 && p <= 1)) throw DomainError("quantile probability outside [0,1]");
  const ParallelRunner runner(model, settings.threads);
  sim::SimOptions opts;
  opts.horizon = settings.horizon;
  const BatchResult batch = runner.run(settings.seed, 0, settings.trajectories, opts);

  std::vector<double> times;
  times.reserve(batch.summaries.size());
  for (const TrajectorySummary& t : batch.summaries)
    times.push_back(t.first_failure_time);  // +inf for survivors
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
