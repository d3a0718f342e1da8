#include "batch/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "lang/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "sim/batch_executor.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::batch {

namespace {

/// A scheduled slice of one job's trajectory index space.
struct Task {
  std::uint32_t job = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Mutable execution state of one pooled (non-cached, non-adaptive) job.
struct JobExec {
  std::uint32_t index = 0;  ///< into plan.jobs / outcome.results
  const SweepJob* job = nullptr;
  /// Scripted-policy jobs simulate the apply_policy transform of the job's
  /// model (owned here so the executor's model reference stays stable); the
  /// cache key is still minted from the untransformed model + the policy
  /// fingerprint in the settings.
  std::optional<fmt::FaultMaintenanceTree> transformed;
  std::optional<lang::BoundPolicy> bound;
  std::optional<sim::BatchExecutor> executor;
  sim::SimOptions opts;
  smc::BatchResult batch;  ///< summaries preallocated; slots are disjoint
  std::mutex totals_mutex;
  std::atomic<std::uint64_t> completed{0};
  /// Job-level isolation: the first throw in any of this job's tasks parks
  /// the job here (remaining tasks are skipped) instead of taking down the
  /// pool; the job is then healed or reported after the pool drains.
  std::atomic<bool> failed{false};
  /// Set when SweepJob::cancel observed a stop: remaining tasks of this job
  /// are dropped on claim, like failed ones, while the plan keeps running.
  std::atomic<bool> cancelled{false};
  std::mutex failure_mutex;
  JobFailure failure;
};

struct SweepMetricIds {
  obs::CounterId jobs, jobs_simulated, tasks, steals, trajectories, events,
      cache_hits, cache_misses;
  obs::CounterId retries, job_failures, corrupt_entries, faults_injected;
};

SweepMetricIds register_sweep_metrics(obs::MetricsRegistry& registry) {
  SweepMetricIds ids;
  ids.jobs = registry.counter("batch.jobs");
  ids.jobs_simulated = registry.counter("batch.jobs_simulated");
  ids.tasks = registry.counter("batch.tasks");
  ids.steals = registry.counter("batch.steals");
  ids.trajectories = registry.counter("batch.trajectories");
  ids.events = registry.counter("batch.events");
  ids.cache_hits = registry.counter("batch.cache.hits");
  ids.cache_misses = registry.counter("batch.cache.misses");
  ids.retries = registry.counter("sweep.retries");
  ids.job_failures = registry.counter("sweep.job_failures");
  ids.corrupt_entries = registry.counter("cache.corrupt_entries");
  ids.faults_injected = registry.counter("fault.injected");
  return ids;
}

/// One worker's task deque. Owner pushes/pops at the back, thieves take from
/// the front, so a steal grabs the work its owner would reach last.
struct alignas(64) WorkQueue {
  std::mutex mutex;
  std::deque<Task> tasks;
};

/// Per-worker liveness signal for the stall watchdog: beats advance with
/// every claimed task and completed trajectory batch; active drops when the
/// worker exits. Cache-line-aligned like the queues to keep the relaxed
/// increments contention-free.
struct alignas(64) Heartbeat {
  std::atomic<std::uint64_t> beats{0};
  std::atomic<bool> active{true};
};

sim::SimOptions options_for(const smc::AnalysisSettings& s) {
  // Mirrors smc::analyze's collect(): same options, so the kernel draws the
  // exact same event sequence per trajectory stream.
  sim::SimOptions opts;
  static_cast<RunSettings&>(opts) = s;
  opts.horizon = s.horizon;
  opts.discount_rate = s.discount_rate;
  opts.record_failure_log = false;
  opts.failure_log_cap = s.failure_log_cap;
  return opts;
}

/// Maps a caught exception to its failure record. The transient classes
/// (retry-eligible) are I/O and injected faults — external conditions a
/// re-run can outlive; domain errors (NaN-poisoned statistics), resource caps and
/// unknown exceptions are deterministic for the job's inputs and retrying
/// them would only repeat the failure.
JobFailure classify_failure(const std::exception& e, std::uint32_t attempts) {
  JobFailure f;
  f.message = e.what();
  f.attempts = attempts;
  if (dynamic_cast<const fault::InjectedFault*>(&e) != nullptr) {
    f.kind = "injected";
    f.transient = true;
  } else if (dynamic_cast<const IoError*>(&e) != nullptr) {
    f.kind = "io";
    f.transient = true;
  } else if (dynamic_cast<const ResourceLimitError*>(&e) != nullptr) {
    f.kind = "resource";
  } else if (dynamic_cast<const DomainError*>(&e) != nullptr) {
    f.kind = "domain";
  } else {
    f.kind = "internal";
  }
  return f;
}

}  // namespace

SweepOutcome run_sweep(const SweepPlan& plan, ResultCache* cache,
                       const obs::Telemetry& telemetry) {
  if (!(plan.chunk > 0)) throw DomainError("sweep chunk must be positive");
  for (const SweepJob& job : plan.jobs) smc::validate_settings(job.settings);

  auto sweep_span = obs::maybe_span(telemetry.tracer, "sweep");
  obs::MetricsRegistry* metrics = telemetry.metrics;
  const SweepMetricIds ids =
      metrics != nullptr ? register_sweep_metrics(*metrics) : SweepMetricIds{};
  const std::uint64_t faults_before = fault::FaultRegistry::instance().fires();
  const std::uint64_t corrupt_before =
      cache != nullptr ? cache->stats().corrupt_entries : 0;

  SweepOutcome outcome;
  outcome.results.resize(plan.jobs.size());

  // Phase 1: resolve every job against the cache; split the misses into
  // pooled jobs and analyze-fallback jobs (adaptive stopping).
  std::vector<std::unique_ptr<JobExec>> pooled;
  std::vector<std::uint32_t> fallback;
  for (std::uint32_t j = 0; j < plan.jobs.size(); ++j) {
    const SweepJob& job = plan.jobs[j];
    JobResult& result = outcome.results[j];
    result.label = job.label;
    result.key = kpi_cache_key(job.model, job.settings);
    if (metrics != nullptr) metrics->add(ids.jobs);
    if (cache != nullptr) {
      if (std::optional<smc::KpiReport> hit = cache->get(result.key)) {
        result.report = *std::move(hit);
        result.completed = true;
        result.cache_hit = true;
        ++outcome.cache_hits;
        if (metrics != nullptr) metrics->add(ids.cache_hits);
        continue;
      }
    }
    ++outcome.cache_misses;
    if (metrics != nullptr) metrics->add(ids.cache_misses);
    if (job.settings.target_relative_error > 0) {
      fallback.push_back(j);
      continue;
    }
    auto exec = std::make_unique<JobExec>();
    exec->index = j;
    exec->job = &job;
    try {
      const fmt::FaultMaintenanceTree* sim_model = &job.model;
      if (job.settings.policy) {
        exec->transformed.emplace(
            lang::apply_policy(*job.settings.policy, job.model));
        sim_model = &*exec->transformed;
      }
      exec->executor.emplace(*sim_model);
      exec->opts = options_for(job.settings);
      if (job.settings.policy) {
        exec->bound.emplace(lang::bind_policy(*job.settings.policy, *sim_model));
        exec->opts.bound_policy = &*exec->bound;
      }
    } catch (const std::exception& e) {
      // Model/policy rejected at construction (e.g. a script naming a
      // component this model lacks): park the failure on the job and let the
      // heal driver classify it — the pool never sees its tasks.
      exec->failed.store(true, std::memory_order_release);
      exec->failure = classify_failure(e, /*attempts=*/1);
    }
    exec->batch.summaries.resize(job.settings.trajectories);
    exec->batch.failures_per_leaf.assign(job.model.num_ebes(), 0);
    exec->batch.repairs_per_leaf.assign(job.model.num_ebes(), 0);
    pooled.push_back(std::move(exec));
  }

  // Phase 2: chunk the pooled jobs into tasks and run them over one
  // work-stealing pool. Tasks are dealt round-robin so all workers start
  // loaded; stealing (front of a victim's deque) rebalances the tail.
  std::uint64_t total_trajectories = 0;
  for (const auto& exec : pooled) total_trajectories += exec->batch.summaries.size();
  std::atomic<std::uint64_t> done{0};
  std::atomic<smc::StopReason> stop{smc::StopReason::None};
  std::string stall_diagnostic;  // written by the watchdog before it stops us

  if (total_trajectories > 0) {
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
        plan.threads != 0 ? plan.threads : hardware,
        (total_trajectories + plan.chunk - 1) / plan.chunk));

    std::vector<WorkQueue> queues(workers);
    std::vector<Heartbeat> heartbeats(workers);
    {
      std::size_t next = 0;
      for (const auto& exec : pooled) {
        const std::uint64_t n = exec->batch.summaries.size();
        for (std::uint64_t first = 0; first < n; first += plan.chunk) {
          Task task{exec->index, first, std::min(plan.chunk, n - first)};
          queues[next % workers].tasks.push_back(task);
          ++next;
        }
      }
      if (metrics != nullptr) metrics->add(ids.tasks, next);
    }

    // index of each pooled JobExec by plan-job index, for task dispatch
    std::vector<JobExec*> exec_of(plan.jobs.size(), nullptr);
    for (const auto& exec : pooled) exec_of[exec->index] = exec.get();

    auto work = [&](unsigned w) {
      sim::BatchWorkspace ws;  // reused across all of this worker's tasks
      obs::LocalMetrics local =
          metrics != nullptr ? metrics->local() : obs::LocalMetrics{};
      std::vector<std::uint64_t> leaf_failures, leaf_repairs;
      obs::ProgressReporter* progress = telemetry.progress;
      std::uint64_t polls = 0;
      while (true) {
        // Own queue first (back), then steal (front), round-robin scan.
        Task task;
        bool found = false;
        {
          std::lock_guard lock(queues[w].mutex);
          if (!queues[w].tasks.empty()) {
            task = queues[w].tasks.back();
            queues[w].tasks.pop_back();
            found = true;
          }
        }
        if (!found) {
          for (unsigned off = 1; off < workers && !found; ++off) {
            WorkQueue& victim = queues[(w + off) % workers];
            std::lock_guard lock(victim.mutex);
            if (!victim.tasks.empty()) {
              task = victim.tasks.front();
              victim.tasks.pop_front();
              found = true;
              local.add(ids.steals);
            }
          }
        }
        if (!found) break;  // no tasks anywhere; none are ever added
        heartbeats[w].beats.fetch_add(1, std::memory_order_relaxed);
        JobExec& exec = *exec_of[task.job];
        // Job-level isolation: once a job failed or was cancelled, its
        // remaining tasks are dropped on claim — the pool keeps its
        // throughput for live jobs.
        if (exec.failed.load(std::memory_order_acquire)) continue;
        // Per-job cancellation (SweepJob::cancel): stops this job only.
        const auto job_cancelled = [&exec]() {
          if (exec.cancelled.load(std::memory_order_acquire)) return true;
          if (exec.job->cancel == nullptr) return false;
          if (exec.job->cancel->should_stop(
                  exec.completed.load(std::memory_order_relaxed)) !=
              smc::StopReason::None) {
            exec.cancelled.store(true, std::memory_order_release);
            return true;
          }
          return false;
        };
        if (job_cancelled()) continue;
        auto task_span = obs::maybe_span(telemetry.tracer,
                                        "job:" + exec.job->label);
        const std::uint64_t seed = exec.job->settings.seed;
        const std::size_t num_leaves = exec.batch.failures_per_leaf.size();
        leaf_failures.assign(num_leaves, 0);
        leaf_repairs.assign(num_leaves, 0);
        // Polls the watchdog/shared control; true when the sweep must stop.
        const auto should_stop = [&]() {
          smc::StopReason r = stop.load(std::memory_order_acquire);
          if (r != smc::StopReason::None) return true;
          if (plan.control == nullptr) return false;
          if ((r = plan.control->should_stop(
                   done.load(std::memory_order_relaxed))) !=
              smc::StopReason::None) {
            smc::StopReason expected = smc::StopReason::None;
            stop.compare_exchange_strong(expected, r,
                                         std::memory_order_acq_rel);
            return true;
          }
          return false;
        };
        const auto report_progress = [&]() {
          if (progress != nullptr && (++polls & 31u) == 0 && progress->due()) {
            obs::Progress p;
            p.phase = "sweep";
            p.done = done.load(std::memory_order_relaxed);
            p.total = total_trajectories;
            progress->update(p);
          }
        };
        std::uint64_t task_done = 0;
        try {
          // The worker-task fault site: error mode simulates a crashed task
          // (isolated into a per-job failure record + retry), stall mode
          // parks this worker to exercise the watchdog.
          (void)fault::fault_point("sweep.task");
          // Trajectory identity lives in the counter-based streams, so the
          // slicing into tasks and kernel blocks cannot affect any result bit.
          if (!should_stop() && !job_cancelled()) {
            exec.executor->run(
                seed, task.first, task.count, exec.opts, ws,
                [&](std::uint64_t index, std::span<sim::TrajectoryResult> block) {
                  for (std::size_t lane = 0; lane < block.size(); ++lane) {
                    const sim::TrajectoryResult& r = block[lane];
                    exec.batch.summaries[index + lane] = smc::summarize(r);
                    for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
                      leaf_failures[leaf] += r.failures_per_leaf[leaf];
                      leaf_repairs[leaf] += r.repairs_per_leaf[leaf];
                    }
                    if (metrics != nullptr) {
                      local.add(ids.trajectories);
                      local.add(ids.events, r.events);
                    }
                  }
                  task_done += block.size();
                  done.fetch_add(block.size(), std::memory_order_relaxed);
                  heartbeats[w].beats.fetch_add(1, std::memory_order_relaxed);
                  report_progress();
                  return !should_stop() && !job_cancelled();
                });
          }
        } catch (const std::exception& e) {
          // First failure wins; later tasks of the job are skipped on claim.
          bool expected = false;
          if (exec.failed.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
            std::lock_guard lock(exec.failure_mutex);
            exec.failure = classify_failure(e, /*attempts=*/1);
          }
          continue;  // this worker moves on to other jobs' tasks
        }
        {
          // Integer totals commute, so fold order cannot affect the result.
          std::lock_guard lock(exec.totals_mutex);
          for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
            exec.batch.failures_per_leaf[leaf] += leaf_failures[leaf];
            exec.batch.repairs_per_leaf[leaf] += leaf_repairs[leaf];
          }
        }
        exec.completed.fetch_add(task_done, std::memory_order_relaxed);
        if (stop.load(std::memory_order_acquire) != smc::StopReason::None)
          break;  // drain: leave remaining tasks unexecuted
      }
      heartbeats[w].active.store(false, std::memory_order_release);
      if (metrics != nullptr) metrics->merge(local);
    };

    // The stall watchdog: while the pool runs, any stall_timeout_s window
    // without a single completed trajectory converts into a Stalled stop and
    // a diagnostic naming the workers whose heartbeats went silent. The
    // watchdog only ever *stops* the sweep — it never unsticks a worker, so
    // join() below still waits for stalled workers to come back (a stuck
    // syscall keeps the process alive; the stop makes every live worker
    // drain as soon as it polls).
    std::atomic<bool> pool_running{true};
    std::thread watchdog;
    if (plan.stall_timeout_s > 0) {
      watchdog = std::thread([&] {
        using clock = std::chrono::steady_clock;
        const auto timeout =
            std::chrono::duration<double>(plan.stall_timeout_s);
        const auto poll = std::chrono::duration<double>(
            std::min(plan.stall_timeout_s / 8.0, 0.05));
        std::vector<std::uint64_t> seen(workers, 0);
        std::uint64_t last_done = done.load(std::memory_order_relaxed);
        auto last_progress = clock::now();
        while (pool_running.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(poll);
          const std::uint64_t cur = done.load(std::memory_order_relaxed);
          if (cur != last_done) {
            last_done = cur;
            last_progress = clock::now();
            continue;
          }
          if (clock::now() - last_progress < timeout) continue;
          std::string silent;
          bool any_active = false;
          for (unsigned w = 0; w < workers; ++w) {
            const std::uint64_t beats =
                heartbeats[w].beats.load(std::memory_order_relaxed);
            if (heartbeats[w].active.load(std::memory_order_acquire)) {
              any_active = true;
              if (beats == seen[w])
                silent += (silent.empty() ? "" : ", ") + std::to_string(w);
            }
            seen[w] = beats;
          }
          if (!any_active) break;  // pool is draining on its own
          stall_diagnostic =
              "sweep watchdog: no trajectory progress for " +
              std::to_string(plan.stall_timeout_s) + "s; silent worker(s): " +
              (silent.empty() ? "(none — tasks not being claimed)" : silent);
          smc::StopReason expected = smc::StopReason::None;
          stop.compare_exchange_strong(expected, smc::StopReason::Stalled,
                                       std::memory_order_acq_rel);
          break;
        }
      });
    }

    if (workers == 1) {
      work(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) threads.emplace_back(work, w);
      for (std::thread& t : threads) t.join();
    }
    pool_running.store(false, std::memory_order_release);
    if (watchdog.joinable()) watchdog.join();
  }

  outcome.trajectories_simulated = done.load(std::memory_order_relaxed);

  // The sequential phases below re-check the stop state through this: the
  // watchdog or control may have stopped the pool, and retries also honor a
  // stop that arrives while they back off.
  const auto stopped = [&]() {
    if (stop.load(std::memory_order_acquire) != smc::StopReason::None)
      return true;
    if (plan.control == nullptr) return false;
    const smc::StopReason r = plan.control->should_stop(
        outcome.trajectories_simulated);
    if (r != smc::StopReason::None) {
      smc::StopReason expected = smc::StopReason::None;
      stop.compare_exchange_strong(expected, r, std::memory_order_acq_rel);
      return true;
    }
    return false;
  };

  // Heal-or-fail driver: (re)runs one job through smc::analyze — which is
  // bit-identical to the pooled path — honoring the transient/permanent
  // split and the bounded exponential backoff. On entry result.failure
  // holds the last failed attempt (attempts >= 1) or is empty (attempts ==
  // 0, first execution of an analyze-fallback job).
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
      if (attempts > 0) {
        if (!result.failure.transient || result.retries >= plan.max_retries) {
          result.failed = true;
          ++outcome.jobs_failed;
          if (metrics != nullptr) metrics->add(ids.job_failures);
          return;
        }
        if (stopped()) return;  // stopping: leave the job incomplete
        const double backoff_ms =
            std::min(plan.retry_backoff_ms * std::exp2(double(result.retries)),
                     plan.retry_backoff_cap_ms);
        if (backoff_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
        ++result.retries;
        ++outcome.retries;
        if (metrics != nullptr) metrics->add(ids.retries);
      } else if (stopped()) {
        return;
      }
      auto span = obs::maybe_span(
          telemetry.tracer,
          (attempts > 0 ? "retry:" : "job:") + job.label);
      try {
        smc::AnalysisSettings settings = job.settings;
        settings.telemetry = telemetry;
        settings.control = plan.control;
        smc::KpiReport report = smc::analyze(job.model, settings);
        outcome.trajectories_simulated += report.trajectories;
        result.report = std::move(report);
        result.completed = !result.report.truncated;
        if (result.completed && cache != nullptr)
          cache->put(result.key, result.report);
        return;
      } catch (const std::exception& e) {
        ++attempts;
        const std::uint32_t prior_retries = result.retries;
        result.failure = classify_failure(e, attempts);
        result.retries = prior_retries;
      }
    }
  };

  // Phase 3: aggregate every fully simulated job (sequentially, in index
  // order — the bit-reproducibility step), feed the cache, and queue failed
  // jobs for healing.
  for (const auto& exec : pooled) {
    JobResult& result = outcome.results[exec->index];
    if (exec->failed.load(std::memory_order_acquire)) {
      {
        std::lock_guard lock(exec->failure_mutex);
        result.failure = exec->failure;
      }
      heal_job(*exec->job, result);
      continue;
    }
    const std::uint64_t wanted = exec->batch.summaries.size();
    if (exec->completed.load(std::memory_order_relaxed) != wanted) {
      // A cancel that left trajectories unrun parks the job as cancelled; a
      // cancel that lost the race with the last task falls through and
      // aggregates normally below.
      if (exec->cancelled.load(std::memory_order_acquire))
        result.cancelled = true;
      continue;
    }
    exec->batch.completed = wanted;
    smc::AnalysisSettings agg = exec->job->settings;
    agg.telemetry = telemetry;
    try {
      result.report = smc::aggregate_kpis(exec->batch, agg);
      result.completed = true;
      if (cache != nullptr) cache->put(result.key, result.report);
    } catch (const std::exception& e) {
      // E.g. NaN-poisoned statistics (DomainError): deterministic for the
      // job's inputs, so heal_job records a permanent failure without
      // burning retries; injected faults still heal.
      result.failure = classify_failure(e, /*attempts=*/1);
      heal_job(*exec->job, result);
    }
  }

  // Phase 4: adaptive jobs go through smc::analyze — their trajectory count
  // emerges from a sequential CI loop that chunk scheduling cannot replay.
  // heal_job gives them the same retry policy as pooled jobs.
  for (const std::uint32_t j : fallback) {
    const SweepJob& job = plan.jobs[j];
    heal_job(job, outcome.results[j]);
  }

  const smc::StopReason stopped_reason = stop.load(std::memory_order_acquire);
  std::uint64_t jobs_simulated = 0;
  for (const JobResult& result : outcome.results) {
    if (result.cancelled) ++outcome.jobs_cancelled;
    if (result.completed && !result.cache_hit) ++jobs_simulated;
    if (!result.completed && !result.failed && !result.cancelled) {
      outcome.truncated = true;
      outcome.stop_reason = stopped_reason;
    }
  }
  if (metrics != nullptr && jobs_simulated > 0)
    metrics->add(ids.jobs_simulated, jobs_simulated);

  // Robustness bookkeeping: cache-integrity warnings + watchdog diagnostic
  // surface on the outcome; the deltas feed the metrics registry.
  if (!stall_diagnostic.empty()) {
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "B102";
    d.message = stall_diagnostic;
    d.hint = "raise --stall-timeout if the workload legitimately pauses";
    outcome.warnings.push_back(std::move(d));
  }
  if (cache != nullptr) {
    for (Diagnostic& d : cache->take_warnings())
      outcome.warnings.push_back(std::move(d));
    if (metrics != nullptr) {
      const std::uint64_t corrupt_now = cache->stats().corrupt_entries;
      if (corrupt_now > corrupt_before)
        metrics->add(ids.corrupt_entries, corrupt_now - corrupt_before);
    }
  }
  if (metrics != nullptr) {
    const std::uint64_t fired =
        fault::FaultRegistry::instance().fires() - faults_before;
    if (fired > 0) metrics->add(ids.faults_injected, fired);
  }
  return outcome;
}

}  // namespace fmtree::batch
