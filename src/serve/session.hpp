// serve::Session — the analysis service, usable in-process or behind the
// `fmtree serve` socket daemon (serve/server.hpp). One Session owns one
// ResultCache and one dispatcher that drains submitted jobs through the
// trajectory pool (batch::run_sweep), so many concurrent callers share one
// hot cache and one saturated trajectory pool.
//
// Submission semantics, in resolution order per job:
//   0. admission read — every job's cache key and cache lookup are computed
//     before the session mutex is taken (batch::resolve_jobs, on up to
//     SessionConfig::threads workers for a large request), so one request's
//     disk reads never hold up another's admission. A draining session
//     refuses the request (R122) before these reads. A C101 from them (a
//     corrupt entry quarantined) belongs to this request: its ticket reports
//     it, or, when the request is refused, the R120 or R122 carries it after
//     its own diagnostic;
//   1. cache hit   — resolved immediately, no queue slot consumed;
//   2. in-flight   — an identical job (same CacheKey) is already queued or
//     running: the caller attaches to it (dedup), the job runs once, every
//     attached ticket receives the same bit-exact report, and the job's
//     effective priority is the max over its watchers;
//   3. admission   — a genuinely new job needs a queue slot; when the count
//     of outstanding jobs would exceed SessionConfig::queue_limit the whole
//     request is rejected with AdmissionError (R120) and *nothing* of it is
//     enqueued (all-or-nothing, so a half-admitted sweep cannot deadlock a
//     client);
//   4. enqueued    — the dispatcher picks jobs up in (priority desc,
//     submission order asc) batches and runs them as one SweepPlan.
//
// Cancellation: Ticket::cancel() detaches one caller; when the last watcher
// of a job detaches, the job's per-job RunControl (SweepJob::cancel) fires
// and the pool abandons it at the next trajectory boundary. No later request
// attaches to a cancelled job: an identical one runs anew. drain() — the
// SIGTERM path — stops the dispatcher, cancels everything still pending,
// and resolves all tickets; completed jobs keep their cached results, so a
// restarted daemon replays them bit-identically.
//
// Bitwise contract: a job's report is bit-identical to standalone
// smc::analyze / `fmtree sweep` for the same model and settings — the
// Session only schedules; it never touches result bits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "serve/request.hpp"
#include "smc/run_control.hpp"

namespace fmtree::serve {

struct SessionConfig {
  unsigned threads = 0;          ///< pool width; 0 = hardware concurrency
  std::size_t queue_limit = 64;  ///< max outstanding (queued + running) jobs
  std::string cache_dir;         ///< disk cache tier; empty = memory-only
  std::string model_root = "models";  ///< directory for model "ref" lookups
  std::uint32_t max_retries = 2;      ///< SweepPlan::max_retries
  double stall_timeout_s = 0.0;       ///< SweepPlan::stall_timeout_s
  /// Borrowed cache, e.g. a second Session sharing another's cache();
  /// nullptr = the Session owns one built from cache_dir.
  batch::ResultCache* cache = nullptr;
  /// Server-owned sinks. serve.* counters are recorded here, and an
  /// admission-time cache hit counts in batch.jobs and batch.cache.hits, and
  /// a quarantine in cache.corrupt_entries, like run_sweep's own; run_sweep
  /// adds its other batch.* counters. Progress flows through the Session's own snapshot
  /// (progress()) *and* any reporter installed here.
  obs::Telemetry telemetry;
};

/// A job of a response is the batch layer's result. A job is Cancelled when
/// every watcher hung up before completion, and Interrupted when the service
/// stopped (drain, deadline, watchdog) first.
using JobOutcome = batch::JobResult;

/// Everything a completed request resolves to, in job submission order.
struct Response {
  std::string id;  ///< echo of Request::id
  std::vector<batch::JobResult> jobs;
  /// The C101s of this request's admission reads, then the warnings of
  /// the dispatch cycles that ran its jobs.
  std::vector<Diagnostic> warnings;
  /// Why the service stopped early: the first stop reason among this
  /// request's Interrupted jobs, None when there are none.
  smc::StopReason stop_reason = smc::StopReason::None;

  bool all_done() const noexcept;
  std::uint64_t count(batch::JobState s) const noexcept;
};

namespace detail {
struct Cycle;
struct JobEntry;
}

/// A caller's handle on one submitted request. Move-only; destroying an
/// unresolved ticket cancels the caller's interest (like cancel()).
class Ticket {
public:
  Ticket() = default;
  Ticket(Ticket&&) noexcept;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;
  ~Ticket();

  /// Number of jobs the request resolved to (after policy expansion).
  std::size_t jobs() const noexcept { return entries_.size(); }
  /// Blocks until every job of the request is resolved.
  void wait();
  /// Blocks up to `seconds`; returns whether every job is resolved.
  bool wait_for(double seconds);
  /// Waits, then assembles the response: the jobs' results, the C101s of
  /// this request's admission reads, and the stop reason and warnings of the
  /// dispatch cycles that resolved its jobs.
  Response take();
  /// Detaches this caller. Jobs whose last watcher detaches are cancelled
  /// at the next trajectory boundary; jobs shared with other callers keep
  /// running. Idempotent.
  void cancel();

private:
  friend class Session;
  class Session* session_ = nullptr;
  std::string id_;
  std::vector<std::shared_ptr<detail::JobEntry>> entries_;
  std::vector<Diagnostic> warnings_;  ///< C101s of the admission reads
  bool detached_ = false;
};

class Session {
public:
  explicit Session(SessionConfig config);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();  ///< drains

  /// Parses nothing: the request's model is resolved (prepare()) and its
  /// jobs submitted atomically. Throws RequestError (R112/R113/R122) and
  /// AdmissionError (R120).
  Ticket submit(const Request& request);

  /// Pre-built jobs, e.g. a corridor's fleet_plan. Settings are validated
  /// (R112); admission is all-or-nothing.
  Ticket submit_jobs(std::vector<batch::SweepJob> jobs, int priority = 0,
                     std::string id = {});

  /// Stops accepting work, cancels pending jobs, resolves every ticket and
  /// joins the dispatcher. Idempotent; the destructor calls it.
  void drain();

  /// The service cache (owned or borrowed per SessionConfig::cache).
  batch::ResultCache& cache() noexcept { return *cache_; }

  /// Latest pool progress (phase "sweep"); generation increments with every
  /// update so pollers can cheaply detect changes.
  struct ProgressSnapshot {
    obs::Progress progress;
    std::uint64_t generation = 0;
  };
  ProgressSnapshot progress() const;

  const SessionConfig& config() const noexcept { return config_; }

private:
  friend class Ticket;

  void dispatcher_loop();
  void resolve_entry_locked(detail::JobEntry& entry, batch::JobResult result,
                            std::shared_ptr<const detail::Cycle> cycle);
  void release_interest(const std::vector<std::shared_ptr<detail::JobEntry>>& entries);

  SessionConfig config_;
  std::unique_ptr<batch::ResultCache> owned_cache_;
  batch::ResultCache* cache_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes the dispatcher
  std::condition_variable done_cv_;   ///< wakes waiting tickets
  std::vector<std::shared_ptr<detail::JobEntry>> pending_;
  std::map<std::string, std::shared_ptr<detail::JobEntry>> inflight_;
  std::size_t outstanding_ = 0;  ///< queued + running (admission accounting)
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  smc::RunControl drain_control_;
  std::thread dispatcher_;

  mutable std::mutex progress_mutex_;
  ProgressSnapshot progress_snapshot_;
  std::unique_ptr<obs::ProgressReporter> progress_reporter_;
};

}  // namespace fmtree::serve
