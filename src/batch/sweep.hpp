// Batch execution of analysis sweeps on the trajectory pool.
//
// A SweepPlan is a set of (model, settings) jobs — typically the same system
// under many policy variants (the paper's cost-curve sweep). run_sweep()
// consults an optional ResultCache, so previously computed jobs cost one
// model hash instead of a simulation, and runs every miss as one job of a
// single smc::run_pool call: workers claim fixed-size trajectory chunks of
// all jobs in plan order, so small jobs do not idle most threads. Misses
// that share a cache key run once: a later one takes the first one's
// outcome under its own label.
//
// A job is settled on the pool: the worker that folds its last trajectory
// builds its report and marks it completed, then hands its cache entry to
// the sweep's writer, which lets one thread write at a time. A worker that
// finds a write in progress leaves its entry queued and simulates on, and
// the worker holding the writer role writes the queue dry, so the cache
// writes (an inode allocation each on disk) overlap later jobs' simulation
// instead of following the pool, and all of them have finished when
// run_sweep returns.
//
// Cache resolution (resolve_jobs) is parallel too: a warm 1000-joint
// corridor is 1000 model hashes and ~1000 disk reads before any trajectory
// runs, so the keys are computed and the cache read on up to `threads`
// workers. What the resolution decides is counted afterwards, serially and
// in plan order, so counters, warnings and the pool's job order do not
// depend on the width.
//
// Determinism contract (the same one smc::analyze keeps): every job —
// adaptive-stopping ones included — is a smc::Simulation folded by a
// smc::KpiFold in trajectory-index order, exactly what smc::analyze runs.
// A job's report is therefore bit-identical to smc::analyze on the same
// model and settings, at any thread count and cache state. Job-level
// AnalysisSettings::control and ::telemetry are ignored: interruption and
// instrumentation of a sweep are plan-level concerns (SweepPlan::control,
// run_sweep's telemetry argument).
//
// Self-healing (DESIGN.md, "Failure semantics"): a job that throws mid-run —
// an injected I/O error, a resource cap, a NaN-poisoned aggregate — becomes a
// structured per-job failure record (JobResult::failed + JobFailure) while
// the rest of the plan completes. Transient failure classes (I/O, injected
// faults) are retried up to SweepPlan::max_retries times with bounded
// exponential backoff; a retry is a one-job pool run, bit-identical to the
// first attempt by the determinism contract and counted into batch.* as it
// is, so a healed job's report carries no trace of the faults it survived. A watchdog
// (SweepPlan::stall_timeout_s) converts stalled-worker heartbeats into a
// StopReason::Stalled stop with a diagnostic naming the stuck workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "batch/fingerprint.hpp"
#include "batch/result_cache.hpp"
#include "fmt/fmtree.hpp"
#include "obs/telemetry.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::batch {

/// One unit of a sweep: a fully-built model plus its analysis settings.
struct SweepJob {
  std::string label;  ///< e.g. the policy name; used in results and spans
  fmt::FaultMaintenanceTree model;
  smc::AnalysisSettings settings;
  /// Optional per-job cancellation, distinct from the plan-level
  /// SweepPlan::control: a stop observed here parks *this* job as
  /// JobResult::cancelled while the rest of the plan keeps running (the
  /// serve layer fires it when every caller of a deduplicated request has
  /// hung up). A cancel that lands after the job's last trajectory completed
  /// is too late by design — the job aggregates and caches normally.
  /// Retries only observe it at attempt boundaries.
  const smc::RunControl* cancel = nullptr;
};

struct SweepPlan {
  std::vector<SweepJob> jobs;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Polled between trajectories. On a stop, jobs whose trajectories all
  /// completed still deliver exact reports; interrupted jobs are returned
  /// with completed == false.
  const smc::RunControl* control = nullptr;
  /// Retry budget for jobs that failed with a *transient* class (I/O errors,
  /// injected faults): up to this many re-runs after the first attempt.
  /// Non-transient classes (domain, resource, internal) never retry.
  std::uint32_t max_retries = 2;
  /// Exponential backoff before retry k sleeps
  /// min(retry_backoff_ms * 2^(k-1), 1000) milliseconds.
  double retry_backoff_ms = 25.0;
  /// Stall watchdog: when > 0 and the pool makes no trajectory progress for
  /// this many seconds while tasks remain, the sweep stops with
  /// StopReason::Stalled and a diagnostic naming the silent workers.
  /// 0 disables the watchdog (the default).
  double stall_timeout_s = 0.0;
};

/// Why a job failed, as data: classification, the message, and how many
/// attempts were spent on it.
struct JobFailure {
  /// Stable class name: "injected", "io", "resource", "domain", "internal".
  std::string kind;
  std::string message;       ///< the final attempt's exception text
  bool transient = false;    ///< whether the class was eligible for retry
  std::uint32_t attempts = 0;  ///< total attempts (first run + retries)
};

/// Final state of one job, derived from JobResult's flags.
enum class JobState : std::uint8_t {
  Done,         ///< report is valid (simulated or from cache)
  Failed,       ///< permanent failure; JobResult::failure says why
  Cancelled,    ///< SweepJob::cancel stopped it before completion
  Interrupted,  ///< the run stopped (control, watchdog, drain) before it finished
};

/// "done", "failed", "cancelled" or "interrupted".
const char* job_state_name(JobState s) noexcept;

/// One job's outcome — from run_sweep, and unchanged through serve::Session,
/// the fmtree.response/v1 wire and the CLI.
struct JobResult {
  std::string label;
  CacheKey key;
  bool completed = false;  ///< report is valid (simulated or from cache)
  bool cache_hit = false;
  /// True when the job threw and exhausted (or was ineligible for) retries;
  /// `failure` then describes why. failed and completed are exclusive.
  bool failed = false;
  JobFailure failure;
  /// Retry attempts spent on this job (0 when the first attempt succeeded).
  std::uint32_t retries = 0;
  /// True when SweepJob::cancel stopped the job before it completed.
  /// Cancelled jobs are neither failures nor plan truncation: completed,
  /// failed and cancelled are mutually exclusive.
  bool cancelled = false;
  smc::KpiReport report;

  JobState state() const noexcept {
    if (completed) return JobState::Done;
    if (failed) return JobState::Failed;
    if (cancelled) return JobState::Cancelled;
    return JobState::Interrupted;
  }
};

struct SweepOutcome {
  std::vector<JobResult> results;  ///< in SweepPlan::jobs order
  std::uint64_t cache_hits = 0;
  /// Jobs the cache did not answer, those that shared a key with an earlier
  /// miss included.
  std::uint64_t cache_misses = 0;
  std::uint64_t trajectories_simulated = 0;
  /// True when the plan stopped (control or watchdog) before every job
  /// finished. Permanently *failed* jobs do not set this — they are
  /// accounted in jobs_failed instead — and neither do per-job *cancelled*
  /// jobs (jobs_cancelled).
  bool truncated = false;
  smc::StopReason stop_reason = smc::StopReason::None;
  std::uint64_t jobs_failed = 0;     ///< jobs with a permanent failure record
  std::uint64_t jobs_cancelled = 0;  ///< jobs stopped by SweepJob::cancel
  std::uint64_t retries = 0;         ///< retry attempts across all jobs
  /// The watchdog's stall diagnostic (B102) when it fired, the C102 drained
  /// from the cache (take_warnings), then the C101 of every entry this
  /// plan's reads quarantined, in plan order.
  std::vector<Diagnostic> warnings;
};

/// One job's cache resolution.
struct Resolution {
  CacheKey key;
  std::optional<smc::KpiReport> hit;      ///< the cached report, on a hit
  std::optional<Diagnostic> quarantined;  ///< C101, when this read quarantined the entry
};

/// Jobs per resolver worker. On a 4-core x86-64 host, starting and joining
/// a helper thread costs ~15 µs and an EI-joint job ~7 µs to key and look
/// up in memory, ~30 µs with a disk read. Two workers resolved 16 memory
/// hits no faster than one, and 32 in 221 instead of 271 µs. At 16 a served
/// request (1–25 jobs) resolves inline and a 1000-joint corridor uses every
/// worker.
inline constexpr std::size_t kResolveGrain = 16;

/// The resolver's width: max(1, min(threads, jobs / kResolveGrain)), where
/// threads == 0 means the hardware concurrency.
unsigned resolve_width(unsigned threads, std::size_t jobs) noexcept;

/// Computes every job's cache key and, when `cache` is non-null, reads the
/// cache for it, on resolve_width(threads, jobs.size()) workers, the calling
/// thread among them. Workers take job indices from one atomic cursor and
/// each writes only its job's slot, so the result (in job order) does not
/// depend on the width, except which of several identical jobs reads a
/// corrupt entry first and gets its C101. The "cache.read" fault site fires
/// on the workers. An exception from a worker is rethrown here once all
/// have joined: the one of the lowest job index, as a serial loop would.
std::vector<Resolution> resolve_jobs(std::span<const SweepJob> jobs, ResultCache* cache,
                                     unsigned threads);

/// Executes the plan: resolve_jobs at width plan.threads, then one pool run
/// of the misses, each key once: a miss whose key an earlier miss of the
/// plan holds takes that job's outcome (report, completed, failed, failure,
/// retries, cancelled) under its own label. Each job that finishes, first
/// attempt or retry, is reported and put into `cache` on the pool, its
/// write run by the pool worker that holds the writer role (see the file
/// comment); afterwards the calling thread heals failed jobs and hands
/// twins their outcomes. `cache` may be null (no caching); `telemetry` may
/// be empty. Emits batch.* counters (jobs and cache hits/misses, per job;
/// jobs_simulated — jobs that produced a fresh report, each key once;
/// tasks, i.e. pool chunks that folded a trajectory; events and
/// trajectories folded), the robustness counters (sweep.retries,
/// sweep.job_failures, cache.corrupt_entries, fault.injected), a
/// "job:<label>" tracer span per chunk, "retry:<label>" spans and a
/// "write:<label>" span around each cache write on the thread that writes
/// it, and "sweep"-phase progress over the total trajectory count. The
/// "sweep.task" fault site fires once per chunk of the first attempt; the
/// cache's "cache.write" site fires in completion order, not plan order.
SweepOutcome run_sweep(const SweepPlan& plan, ResultCache* cache = nullptr,
                       const obs::Telemetry& telemetry = {});

}  // namespace fmtree::batch
