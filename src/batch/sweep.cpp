#include "batch/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::batch {

namespace {

constexpr double kRetryBackoffCapMs = 1000.0;

/// Hands settled jobs' entries to the cache, one writer at a time, on the
/// threads that settle them. Each new disk entry costs the kernel an inode
/// allocation, and concurrent creators contend for it, so a put queues its
/// entry and writes the queue dry only when no other thread is writing; a
/// thread that finds a write in progress returns at once. Every put returns
/// after its entry is written or handed to a writer that is still running,
/// so the queue is empty once the pool run that settled the jobs returns.
class Writer {
public:
  Writer(ResultCache* cache, obs::Tracer* tracer) : cache_(cache), tracer_(tracer) {}
  Writer(const Writer&) = delete;  // the pool jobs' folds hold its address
  Writer& operator=(const Writer&) = delete;

  /// `result` must stay unchanged until the pool run returns.
  void put(const JobResult& result) noexcept {
    if (cache_ == nullptr) return;
    std::unique_lock lock(mutex_);
    try {
      queue_.push_back(&result);
    } catch (...) {
      return;  // out of memory: the entry is lost to the cache, not to its job
    }
    if (writing_) return;
    writing_ = true;
    while (!queue_.empty()) {
      const JobResult& next = *queue_.front();
      queue_.pop_front();
      lock.unlock();
      try {
        auto span = obs::maybe_span(tracer_, "write:" + next.label);
        cache_->put(next.key, next.report);
      } catch (...) {
        // Only an allocation failure throws here; it costs this entry alone.
      }
      lock.lock();
    }
    writing_ = false;
  }

private:
  ResultCache* cache_;
  obs::Tracer* tracer_;
  std::mutex mutex_;
  std::deque<const JobResult*> queue_;  // guarded by mutex_
  bool writing_ = false;                // guarded by mutex_
};

/// One attempt at `job`, the first and every retry alike, as a pool job: its
/// simulation and smc::analyze's KPI fold live on in `simulations` and
/// `folds`. Control and telemetry are the plan's and run_sweep's. The fold
/// settles the job when it takes its last trajectory: it builds the report
/// into `result`, marks the job completed and hands it to `writer`, on the
/// worker that folded it. A throw from report() (a non-finite statistic) is
/// the job's PoolJob::error.
smc::PoolJob attempt(const SweepJob& job, JobResult& result, Writer& writer,
                     std::deque<smc::Simulation>& simulations,
                     std::deque<smc::KpiFold>& folds) {
  smc::AnalysisSettings settings = job.settings;
  settings.control = nullptr;
  settings.telemetry = {};
  const smc::Simulation& simulation = simulations.emplace_back(job.model, settings);
  smc::KpiFold& fold = folds.emplace_back(settings, job.model.num_ebes());
  smc::PoolJob pool_job = simulation.job(
      [&fold, &result, &writer, last = settings.trajectories](sim::TrajectoryResult& r) {
        const bool more = fold.add(r);
        if (more && fold.folded() < last) return true;
        result.report = fold.report();
        result.completed = true;
        writer.put(result);
        return more;
      });
  pool_job.span = "job:" + job.label;
  return pool_job;
}

/// Maps a caught exception to its failure record. The transient classes
/// (retry-eligible) are I/O and injected faults — external conditions a
/// re-run can outlive; domain errors (NaN-poisoned statistics), resource caps and
/// unknown exceptions are deterministic for the job's inputs and retrying
/// them would only repeat the failure.
JobFailure classify_failure(const std::exception_ptr& error, std::uint32_t attempts) {
  JobFailure f;
  f.attempts = attempts;
  f.kind = "internal";
  try {
    std::rethrow_exception(error);
  } catch (const fault::InjectedFault& e) {
    f.message = e.what();
    f.kind = "injected";
    f.transient = true;
  } catch (const IoError& e) {
    f.message = e.what();
    f.kind = "io";
    f.transient = true;
  } catch (const ResourceLimitError& e) {
    f.message = e.what();
    f.kind = "resource";
  } catch (const DomainError& e) {
    f.message = e.what();
    f.kind = "domain";
  } catch (const std::exception& e) {
    f.message = e.what();
  } catch (...) {
    f.message = "unknown exception";
  }
  return f;
}

}  // namespace

const char* job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Interrupted: return "interrupted";
  }
  return "?";
}

unsigned resolve_width(unsigned threads, std::size_t jobs) noexcept {
  const std::size_t wanted =
      threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t width = std::min(wanted, jobs / kResolveGrain);
  return static_cast<unsigned>(std::max<std::size_t>(width, 1));
}

std::vector<Resolution> resolve_jobs(std::span<const SweepJob> jobs, ResultCache* cache,
                                     unsigned threads) {
  std::vector<Resolution> slots(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  const auto work = [&]() noexcept {
    // After a failure no worker claims another index, but every index below
    // it was already claimed and still resolves, so the lowest failing one
    // is always recorded.
    while (!failed) {
      const std::size_t i = cursor++;
      if (i >= jobs.size()) return;
      try {
        Resolution& slot = slots[i];
        slot.key = kpi_cache_key(jobs[i].model, jobs[i].settings);
        if (cache != nullptr) slot.hit = cache->get(slot.key, &slot.quarantined);
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
  };
  const unsigned width = resolve_width(threads, jobs.size());
  std::vector<std::thread> helpers;
  helpers.reserve(width - 1);
  for (unsigned w = 1; w < width; ++w) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the workers already running take it all
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return slots;
}

SweepOutcome run_sweep(const SweepPlan& plan, ResultCache* cache,
                       const obs::Telemetry& telemetry) {
  for (const SweepJob& job : plan.jobs) smc::validate_settings(job.settings);

  auto sweep_span = obs::maybe_span(telemetry.tracer, "sweep");
  obs::MetricsRegistry* metrics = telemetry.metrics;
  const auto count = [metrics](obs::CounterMetric counter, std::uint64_t n = 1) {
    if (metrics != nullptr && n > 0) metrics->add(counter, n);
  };
  const std::uint64_t faults_before = fault::FaultRegistry::instance().fires();

  SweepOutcome outcome;
  outcome.results.resize(plan.jobs.size());

  // Phase 1: resolve every job against the cache on the resolver's workers.
  // Then, serially and in plan order, count each job and set up each miss as
  // a pool job: its simulation, and the KPI fold smc::analyze would use. A
  // miss whose key an earlier miss holds runs no pool job: first[j] names
  // the job whose outcome job j takes (j itself unless it has such a twin).
  std::vector<Resolution> resolved = resolve_jobs(plan.jobs, cache, plan.threads);
  std::vector<Diagnostic> quarantines;  // the jobs' C101s, in plan order
  Writer writer(cache, telemetry.tracer);
  std::deque<smc::Simulation> simulations;
  std::deque<smc::KpiFold> folds;
  std::vector<smc::PoolJob> jobs;
  std::vector<std::uint32_t> pooled;  // plan index of each pool job
  std::vector<std::uint32_t> first(plan.jobs.size());
  std::map<std::pair<Fingerprint, Fingerprint>, std::uint32_t> first_miss;
  for (std::uint32_t j = 0; j < plan.jobs.size(); ++j) {
    const SweepJob& job = plan.jobs[j];
    JobResult& result = outcome.results[j];
    Resolution& resolution = resolved[j];
    result.label = job.label;
    result.key = resolution.key;
    first[j] = j;
    count(obs::Metric::BatchJobs);
    if (resolution.quarantined)
      quarantines.push_back(*std::move(resolution.quarantined));
    if (resolution.hit) {
      result.report = *std::move(resolution.hit);
      result.completed = true;
      result.cache_hit = true;
      ++outcome.cache_hits;
      count(obs::Metric::BatchCacheHits);
      continue;
    }
    ++outcome.cache_misses;
    count(obs::Metric::BatchCacheMisses);
    first[j] = first_miss.try_emplace({result.key.model, result.key.request}, j)
                   .first->second;
    if (first[j] != j) continue;
    try {
      jobs.push_back(attempt(job, result, writer, simulations, folds));
      jobs.back().cancel = job.cancel;
      pooled.push_back(j);
    } catch (...) {
      // Model/policy rejected at set-up (e.g. a script naming a component
      // this model lacks): the heal driver classifies it below; the pool
      // never sees the job.
      result.failure = classify_failure(std::current_exception(), /*attempts=*/1);
    }
  }

  // Phase 2: every miss without an earlier twin runs as one job of a single
  // pool run, which settles each job that finishes and writes its entry.
  smc::PoolOptions options;
  options.threads = plan.threads;
  options.control = plan.control;
  options.stall_timeout_s = plan.stall_timeout_s;
  // The worker-task fault site: error mode simulates a crashed chunk
  // (isolated into a per-job failure record + retry), stall mode parks a
  // worker to exercise the watchdog.
  options.fault_site = "sweep.task";
  options.telemetry = telemetry;
  options.progress_phase = "sweep";
  options.sweep_counters = true;
  const smc::PoolOutcome pool = smc::run_pool(jobs, options);
  count(obs::Metric::BatchTasks, pool.chunks);
  outcome.trajectories_simulated = pool.trajectories;

  // The sequential phase below re-checks the stop state through this: the
  // watchdog or control may have stopped the pool, and retries also honor a
  // stop that arrives while they back off.
  smc::StopReason stop = pool.stop_reason;
  std::vector<std::string> stalls;  // the watchdog diagnostics, in run order
  if (!pool.stall.empty()) stalls.push_back(pool.stall);
  const auto stopped = [&]() {
    if (stop == smc::StopReason::None && plan.control != nullptr)
      stop = plan.control->should_stop(outcome.trajectories_simulated);
    return stop != smc::StopReason::None;
  };

  // Heal-or-fail driver: re-runs one job as a one-job pool run, counted as
  // the first attempt was, and bit-identical to it by the determinism
  // contract, honoring the transient/permanent split and the bounded
  // exponential backoff. Retries hit no "sweep.task" fault site; a stop or
  // stall of theirs stops the sweep as the first pass's would, and the
  // trajectory budget counts them after it. On entry result.failure holds
  // the failed attempt.
  smc::PoolOptions retry_options = options;
  retry_options.fault_site = nullptr;
  const auto heal_job = [&](const SweepJob& job, JobResult& result) {
    std::uint32_t attempts = result.failure.attempts;
    for (;;) {
      // Per-job cancel beats both healing and failure accounting: the
      // caller already hung up, so neither a retry nor a failure record is
      // owed. Observed only at attempt boundaries (documented on SweepJob).
      if (job.cancel != nullptr &&
          job.cancel->should_stop(0) != smc::StopReason::None) {
        result.cancelled = true;
        return;
      }
      if (!result.failure.transient || result.retries >= plan.max_retries) {
        result.failed = true;
        return;
      }
      if (stopped()) return;  // stopping: leave the job incomplete
      const double backoff_ms =
          std::min(plan.retry_backoff_ms * std::exp2(double(result.retries)),
                   kRetryBackoffCapMs);
      if (backoff_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      ++result.retries;
      ++outcome.retries;
      count(obs::Metric::SweepRetries);
      auto span = obs::maybe_span(telemetry.tracer, "retry:" + job.label);
      try {
        smc::PoolJob retry = attempt(job, result, writer, simulations, folds);
        const smc::KpiFold& fold = folds.back();
        retry_options.simulated_before = outcome.trajectories_simulated;
        const smc::PoolOutcome run = smc::run_pool({&retry, 1}, retry_options);
        count(obs::Metric::BatchTasks, run.chunks);
        outcome.trajectories_simulated += run.trajectories;
        if (stop == smc::StopReason::None) stop = run.stop_reason;
        if (!run.stall.empty()) stalls.push_back(run.stall);
        if (result.completed) return;  // settled by its fold
        if (retry.error) std::rethrow_exception(retry.error);
        // A stop cut the retry short: its report is truncated and uncached.
        result.report = fold.report(run.stop_reason);
        return;
      } catch (...) {
        const std::uint32_t prior_retries = result.retries;
        result.failure = classify_failure(std::current_exception(), ++attempts);
        result.retries = prior_retries;
      }
    }
  };

  // Phase 3: a pooled job that finished is settled. In plan order, heal a
  // failed job, park a cancelled one, and hand a twin its first job's outcome.
  std::size_t next = 0;  // into jobs and pooled
  for (std::uint32_t j = 0; j < plan.jobs.size(); ++j) {
    JobResult& result = outcome.results[j];
    if (first[j] != j) {  // its twin, earlier in plan order, is settled
      JobResult twin = outcome.results[first[j]];
      twin.label = std::move(result.label);
      result = std::move(twin);
      continue;
    }
    const smc::PoolJob* pool_job =
        next < pooled.size() && pooled[next] == j ? &jobs[next++] : nullptr;
    if (result.completed) continue;  // a cache hit, or settled by its fold
    if (pool_job == nullptr) {       // set-up failed
      heal_job(plan.jobs[j], result);
    } else if (pool_job->error) {
      // A failed chunk, or a report() that threw: a non-finite statistic
      // (DomainError) is deterministic for the job's inputs, so heal_job
      // records a permanent failure without burning retries.
      result.failure = classify_failure(pool_job->error, /*attempts=*/1);
      heal_job(plan.jobs[j], result);
    } else if (pool_job->cancelled) {
      result.cancelled = true;  // a cancel that cut the job short
    }
  }

  std::uint64_t jobs_simulated = 0;
  for (std::uint32_t j = 0; j < plan.jobs.size(); ++j) {
    const JobResult& result = outcome.results[j];
    if (result.cancelled) ++outcome.jobs_cancelled;
    if (result.failed) ++outcome.jobs_failed;
    if (result.completed && !result.cache_hit && first[j] == j) ++jobs_simulated;
    if (!result.completed && !result.failed && !result.cancelled) {
      outcome.truncated = true;
      outcome.stop_reason = stop;
    }
  }
  count(obs::Metric::BatchJobsSimulated, jobs_simulated);
  count(obs::Metric::SweepJobFailures, outcome.jobs_failed);

  // Robustness bookkeeping: cache-integrity warnings + watchdog diagnostics
  // surface on the outcome; the deltas feed the metrics registry.
  for (std::string& stall : stalls)
    outcome.warnings.push_back(
        {.severity = Severity::Warning, .code = "B102", .loc = {},
         .message = std::move(stall),
         .hint = "raise --stall-timeout if the workload legitimately pauses",
         .token = {}});
  if (cache != nullptr)
    for (Diagnostic& d : cache->take_warnings())
      outcome.warnings.push_back(std::move(d));
  count(obs::Metric::CacheCorruptEntries, quarantines.size());
  for (Diagnostic& d : quarantines) outcome.warnings.push_back(std::move(d));
  count(obs::Metric::FaultInjected,
        fault::FaultRegistry::instance().fires() - faults_before);
  return outcome;
}

}  // namespace fmtree::batch
