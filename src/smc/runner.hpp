// Deterministic multi-threaded Monte-Carlo execution of FMT trajectories.
//
// Trajectory i always draws from CounterStream(seed, i), independent of the
// thread that runs it, and floating-point aggregation happens sequentially
// over the index-ordered summaries — so every statistic is bit-for-bit
// reproducible at any thread count.
//
// Each worker thread owns one sim::BatchWorkspace reused across all its
// blocks, so a batch of millions of runs performs no per-trajectory
// allocation in the kernel (the determinism contract is unaffected:
// workspaces carry no state between blocks).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/batch_executor.hpp"
#include "smc/run_control.hpp"

namespace fmtree::smc {

/// Compact per-trajectory record retained for aggregation.
struct TrajectorySummary {
  double first_failure_time = 0.0;
  std::uint32_t failures = 0;
  double downtime = 0.0;
  fmt::CostBreakdown cost;
  double discounted_total = 0.0;  ///< NPV of all costs (== cost.total() at rate 0)
  std::uint32_t inspections = 0;
  std::uint32_t repairs = 0;
  std::uint32_t replacements = 0;
};

/// Result of one batch of trajectories.
struct BatchResult {
  /// Ordered by trajectory index (first .. first+completed-1).
  std::vector<TrajectorySummary> summaries;
  /// Integer totals over the batch; order-independent, so summed per thread.
  std::vector<std::uint64_t> failures_per_leaf;
  std::vector<std::uint64_t> repairs_per_leaf;
  /// Per-trajectory failure logs, parallel to `summaries`. Only filled when
  /// SimOptions::record_failure_log is set; empty otherwise.
  std::vector<std::vector<sim::FailureRecord>> failure_logs;
  /// True when at least one trajectory's failure log was dropped because the
  /// batch hit SimOptions::failure_log_cap. Summaries and per-leaf totals
  /// are unaffected; only the auxiliary logs are incomplete.
  bool failure_logs_truncated = false;
  /// Trajectories actually delivered (== the requested count unless the run
  /// was truncated by a RunControl).
  std::uint64_t completed = 0;
  /// True when the batch stopped early. The delivered prefix is still exact:
  /// bit-identical to an untruncated run over the same `completed` streams.
  bool truncated = false;
  StopReason stop_reason = StopReason::None;
};

/// The summary of one trajectory result.
TrajectorySummary summarize(const sim::TrajectoryResult& r);

class ParallelRunner {
public:
  /// Builds the kernel for `model` (which must outlive the runner) once;
  /// `threads == 0` selects std::thread::hardware_concurrency().
  explicit ParallelRunner(const fmt::FaultMaintenanceTree& model, unsigned threads = 0);

  /// Runs trajectories with stream ids [first, first+count) under `seed`.
  ///
  /// With a RunControl, workers poll it between kernel blocks; on a stop the
  /// batch is cut to the longest fully-completed index prefix, so every
  /// delivered statistic is exact for the streams it covers — identical to
  /// running the same seed over just those streams. Without one (`control ==
  /// nullptr`) the batch always runs to completion.
  ///
  /// Telemetry rides in `opts.telemetry`: smc.* counters and the
  /// events-per-trajectory histogram accumulate per worker and merge at the
  /// end of the batch; a ProgressReporter is polled between blocks.
  /// Telemetry reads counters only — enabling it changes no result bit.
  BatchResult run(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                  const sim::SimOptions& opts,
                  const RunControl* control = nullptr) const;

  unsigned threads() const noexcept { return threads_; }

private:
  sim::BatchExecutor executor_;
  unsigned threads_;
};

}  // namespace fmtree::smc
