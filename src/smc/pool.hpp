// The trajectory pool: the one loop every Monte-Carlo result runs through.
//
// run_pool() executes a list of jobs — each one model's kernel, its options,
// a seed, a trajectory count and a Fold — on a set of worker threads. The
// workers claim fixed-size chunks of trajectories from one shared cursor in
// plan order (job by job, chunk by chunk), run each chunk on the kernel, and
// hand every job's trajectories to its fold strictly in index order:
//
//  * the reorder window — a finished chunk is folded as soon as it is the
//    next one its job needs, by whichever worker finished it; until then it
//    parks, and its buffer is reused once it has been folded. A worker more
//    than 32 x workers chunks ahead of the oldest unfolded chunk waits; a
//    stop, a cancel or a job failure wakes it. Memory is O(workers x chunk),
//    whatever the trajectory count;
//  * determinism — trajectory i of a job draws from CounterStream(seed,
//    first + i) whichever worker runs it, and a fold sees trajectories in
//    index order, so every statistic it accumulates is bit-identical at any
//    thread count;
//  * stops — workers poll the pool's RunControl and each job's cancel
//    handle every 16 trajectories of a chunk. On a stop every job ends at
//    the longest prefix of trajectory indices it completed, which its fold
//    has received exactly as an untruncated run of that length would
//    deliver it;
//  * isolation — an exception from a chunk or a fold fails only its own job
//    (PoolJob::error); the other jobs run on.
//
// Workers start per call; the calling thread is one of them.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/batch_executor.hpp"
#include "smc/run_control.hpp"

namespace fmtree::smc {

/// Consumes one job's trajectories, strictly in index order 0, 1, 2, ...,
/// one call at a time. It may move from its argument. Returning false ends
/// the job after this trajectory: later ones are dropped.
using Fold = std::function<bool(sim::TrajectoryResult&)>;

/// One job of a pool run. The inputs must outlive run_pool(); the outputs
/// are written by it.
struct PoolJob {
  const sim::BatchExecutor* executor = nullptr;
  const sim::SimOptions* options = nullptr;
  std::uint64_t seed = 0;
  /// Trajectory i of the job draws from CounterStream(seed, first + i).
  std::uint64_t first = 0;
  std::uint64_t trajectories = 0;
  Fold fold = {};
  /// Optional per-job stop: when it fires, this job ends at its longest
  /// completed prefix while the other jobs run on.
  const RunControl* cancel = nullptr;
  /// Tracer span opened around each of the job's chunks ("" = none).
  std::string span = {};

  /// Trajectories the fold received: always the index prefix [0, folded).
  std::uint64_t folded = 0;
  bool ended = false;      ///< the fold returned false
  bool cancelled = false;  ///< `cancel` fired
  /// The first exception a chunk or the fold threw; the job then stopped.
  std::exception_ptr error = nullptr;

  /// True when the fold saw every trajectory it asked for.
  bool finished() const noexcept { return ended || folded == trajectories; }
};

struct PoolOptions {
  /// Worker threads; 0 = hardware concurrency. Never more than there are
  /// chunks.
  unsigned threads = 0;
  /// Stops every job; polled with the number of trajectories the pool has
  /// simulated so far, plus `simulated_before`.
  const RunControl* control = nullptr;
  /// Trajectories earlier pool runs simulated under the same `control`, so
  /// that its trajectory budget counts a run split over several calls whole.
  std::uint64_t simulated_before = 0;
  /// Stall watchdog: when > 0 and no trajectory completes for this many
  /// seconds, the pool stops with StopReason::Stalled and
  /// PoolOutcome::stall names the silent workers.
  double stall_timeout_s = 0.0;
  /// Fault-injection site hit before every chunk the pool simulates
  /// (nullptr = none).
  const char* fault_site = nullptr;
  /// Tracer for the per-chunk job spans, progress reporter (phase
  /// `progress_phase`, over the total trajectory count) and metrics registry.
  obs::Telemetry telemetry;
  const char* progress_phase = "simulate";
  /// Metrics count each folded trajectory, so their totals do not depend on
  /// the thread count: as a sweep's (batch.trajectories, batch.events) when
  /// set, else as smc::analyze's (smc.*, outcomes and the histogram too).
  bool sweep_counters = false;
};

struct PoolOutcome {
  StopReason stop_reason = StopReason::None;  ///< why the pool stopped early
  /// Chunks that handed their job's fold at least one trajectory: like the
  /// folded prefixes, independent of the thread count.
  std::uint64_t chunks = 0;
  std::uint64_t trajectories = 0;  ///< simulated, whether folded or not
  std::string stall;               ///< the watchdog's diagnostic, if it fired
};

/// Runs `jobs` to completion (or to a stop) and returns when every worker
/// has finished.
PoolOutcome run_pool(std::span<PoolJob> jobs, const PoolOptions& options);

}  // namespace fmtree::smc
