#include "smc/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace fmtree::smc {

namespace {

/// Pairs per block of a paired comparison: blocks double from the first
/// size to the last, so that an early stop leaves pairs to report too.
constexpr std::uint64_t kFirstPairBlock = 4096;
constexpr std::uint64_t kPairBlock = std::uint64_t{1} << 16;

ResourceLimitError nothing_completed(StopReason stop) {
  return ResourceLimitError("run stopped (" + std::string(stop_reason_name(stop)) +
                                ") before any trajectory completed",
                            {});
}

}  // namespace

PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings) {
  if (!(settings.horizon > 0)) throw DomainError("horizon must be positive");
  if (settings.trajectories == 0) throw DomainError("need at least one trajectory");
  const Simulation simulation_a(a, settings);
  const Simulation simulation_b(b, settings);

  // Same (seed, stream) per index: trajectory i of both variants experiences
  // the same random draws in the same order as long as their executions
  // agree, which is what cancels shared noise. Each variant keeps only the
  // per-trajectory values the pairing differences.
  struct Values {
    std::vector<double> failures, cost, downtime;
  };
  const auto keep = [](Values& v) -> Fold {
    return [&v](sim::TrajectoryResult& r) {
      v.failures.push_back(static_cast<double>(r.failures));
      v.cost.push_back(r.cost.total());
      v.downtime.push_back(r.downtime);
      return true;
    };
  };
  // The pool runs a job's trajectories before the next job's, so the
  // variants run block by block over the same index range: a stop then
  // leaves pairs, and only one block's values are kept. Pairs fold in
  // index order, so the statistics do not depend on the block size.
  RunningStats failures, cost, downtime;
  PairedComparison out;
  while (out.trajectories < settings.trajectories &&
         out.stop_reason == StopReason::None) {
    const std::uint64_t block =
        std::min(std::clamp(out.trajectories, kFirstPairBlock, kPairBlock),
                 settings.trajectories - out.trajectories);
    Values va, vb;
    PoolJob jobs[] = {simulation_a.job(keep(va)), simulation_b.job(keep(vb))};
    for (PoolJob& job : jobs) {
      job.first = out.trajectories;
      job.trajectories = block;
    }
    // Every earlier block completed: two trajectories per pair.
    const PoolOutcome outcome = simulate(jobs, settings, 2 * out.trajectories);
    const std::size_t pairs = std::min(va.failures.size(), vb.failures.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      failures.add(va.failures[i] - vb.failures[i]);
      cost.add(va.cost[i] - vb.cost[i]);
      downtime.add(va.downtime[i] - vb.downtime[i]);
    }
    out.trajectories += pairs;
    if (pairs < block) out.stop_reason = outcome.stop_reason;  // the pool stopped
  }
  if (out.trajectories == 0) throw nothing_completed(out.stop_reason);
  out.failures_diff = failures.mean_ci(settings.confidence);
  out.cost_diff = cost.mean_ci(settings.confidence);
  out.downtime_diff = downtime.mean_ci(settings.confidence);
  return out;
}

FailureQuantiles failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                        const std::vector<double>& probabilities,
                                        const AnalysisSettings& settings) {
  if (probabilities.empty()) throw DomainError("need at least one probability");
  for (double p : probabilities)
    if (!(p >= 0 && p <= 1)) throw DomainError("quantile probability outside [0,1]");
  if (settings.trajectories == 0) throw DomainError("need at least one trajectory");
  const Simulation simulation(model, settings);
  std::vector<double> times;  // first failure times, +inf for survivors
  PoolJob job = simulation.job([&times](sim::TrajectoryResult& r) {
    times.push_back(r.first_failure_time);
    return true;
  });
  const StopReason stop = simulate({&job, 1}, settings).stop_reason;
  if (times.empty()) throw nothing_completed(stop);
  std::sort(times.begin(), times.end());

  FailureQuantiles out;
  out.trajectories = times.size();
  out.stop_reason = job.finished() ? StopReason::None : stop;
  out.values.reserve(probabilities.size());
  for (double p : probabilities) {
    const double pos = p * static_cast<double>(times.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double lo = times[idx];
    const double hi = times[std::min(idx + 1, times.size() - 1)];
    if (std::isinf(lo) || std::isinf(hi)) {
      out.values.push_back(std::numeric_limits<double>::infinity());
    } else {
      const double frac = pos - static_cast<double>(idx);
      out.values.push_back(lo * (1 - frac) + hi * frac);
    }
  }
  return out;
}

}  // namespace fmtree::smc
