#include "serve/session.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "smc/kpi.hpp"

namespace fmtree::serve {

namespace detail {

/// What one dispatch cycle (one run_sweep call), or one drain, reports
/// beyond its jobs' results. Shared by the entries it resolved.
struct Cycle {
  smc::StopReason stop_reason = smc::StopReason::None;
  std::vector<Diagnostic> warnings;
};

/// One deduplicated unit of work. Shared (shared_ptr) between every ticket
/// watching it, the pending queue and the in-flight index; all fields except
/// `cancel` are guarded by the session mutex.
struct JobEntry {
  batch::SweepJob job;  ///< job.cancel points at `cancel` below
  smc::RunControl cancel;
  std::string key_id;
  int priority = 0;
  std::uint64_t seq = 0;
  int interested = 0;  ///< watchers; the last one to leave cancels the job
  bool done = false;
  batch::JobResult result;
  /// The cycle or drain that resolved the entry; null for cache hits and
  /// jobs cancelled while queued.
  std::shared_ptr<const Cycle> cycle;
};

}  // namespace detail

using detail::Cycle;
using detail::JobEntry;

bool Response::all_done() const noexcept {
  for (const batch::JobResult& j : jobs)
    if (!j.completed) return false;
  return true;
}

std::uint64_t Response::count(batch::JobState s) const noexcept {
  std::uint64_t n = 0;
  for (const batch::JobResult& j : jobs)
    if (j.state() == s) ++n;
  return n;
}

// ---- Ticket -----------------------------------------------------------------

Ticket::Ticket(Ticket&& other) noexcept
    : session_(other.session_),
      id_(std::move(other.id_)),
      entries_(std::move(other.entries_)),
      warnings_(std::move(other.warnings_)),
      detached_(other.detached_) {
  other.session_ = nullptr;
  other.detached_ = true;
}

Ticket::~Ticket() { cancel(); }

void Ticket::wait() {
  if (session_ == nullptr) return;
  std::unique_lock lock(session_->mutex_);
  session_->done_cv_.wait(lock, [&] {
    for (const auto& e : entries_)
      if (!e->done) return false;
    return true;
  });
}

bool Ticket::wait_for(double seconds) {
  if (session_ == nullptr) return true;
  std::unique_lock lock(session_->mutex_);
  return session_->done_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds), [&] {
        for (const auto& e : entries_)
          if (!e->done) return false;
        return true;
      });
}

Response Ticket::take() {
  wait();
  Response response;
  response.id = id_;
  if (session_ == nullptr) return response;
  response.warnings = warnings_;
  std::lock_guard lock(session_->mutex_);
  response.jobs.reserve(entries_.size());
  std::vector<const Cycle*> cycles;  // each cycle's warnings are reported once
  for (const auto& e : entries_) {
    response.jobs.push_back(e->result);
    const Cycle* cycle = e->cycle.get();
    if (cycle == nullptr) continue;
    if (response.stop_reason == smc::StopReason::None &&
        e->result.state() == batch::JobState::Interrupted)
      response.stop_reason = cycle->stop_reason;
    if (std::find(cycles.begin(), cycles.end(), cycle) != cycles.end()) continue;
    cycles.push_back(cycle);
    response.warnings.insert(response.warnings.end(), cycle->warnings.begin(),
                             cycle->warnings.end());
  }
  return response;
}

void Ticket::cancel() {
  if (session_ == nullptr || detached_) return;
  detached_ = true;
  session_->release_interest(entries_);
}

// ---- Session ----------------------------------------------------------------

Session::Session(SessionConfig config) : config_(std::move(config)) {
  if (config_.cache != nullptr) {
    cache_ = config_.cache;
  } else {
    owned_cache_ = config_.cache_dir.empty()
                       ? std::make_unique<batch::ResultCache>()
                       : std::make_unique<batch::ResultCache>(config_.cache_dir);
    cache_ = owned_cache_.get();
  }
  progress_reporter_ = std::make_unique<obs::ProgressReporter>(
      [this](const obs::Progress& p) {
        {
          std::lock_guard lock(progress_mutex_);
          progress_snapshot_.progress = p;
          ++progress_snapshot_.generation;
        }
        // Forward to the server's own reporter (CLI --progress) if present;
        // it throttles again on its own interval.
        if (config_.telemetry.progress != nullptr)
          config_.telemetry.progress->update(p);
      },
      /*min_interval_seconds=*/0.2);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Session::~Session() { drain(); }

Session::ProgressSnapshot Session::progress() const {
  std::lock_guard lock(progress_mutex_);
  return progress_snapshot_;
}

Ticket Session::submit(const Request& request) {
  PreparedRequest prepared = prepare(request, config_.model_root);
  return submit_jobs(std::move(prepared.jobs), request.priority, request.id);
}

Ticket Session::submit_jobs(std::vector<batch::SweepJob> jobs, int priority,
                            std::string id) {
  if (jobs.empty())
    throw RequestError("R112", "request expands to no jobs");
  for (const batch::SweepJob& job : jobs) {
    try {
      smc::validate_settings(job.settings);
    } catch (const Error& e) {
      throw RequestError("R112", std::string("invalid settings: ") + e.what());
    }
  }
  const auto draining = [](std::vector<Diagnostic> warnings) {
    return RequestError("R122", "service is draining and accepts no new requests", {},
                        std::move(warnings));
  };
  {
    // A draining session refuses the request before reading the cache.
    std::lock_guard lock(mutex_);
    if (stopping_) throw draining({});
  }
  // Admission reads: every job's key and cache lookup, before the session
  // lock, on the resolver's workers for a large request. A job that an
  // identical in-flight one finishes between this read and the lock is
  // neither a hit here nor in flight below, so it is admitted as New and
  // runs again, with the same bits.
  std::vector<batch::Resolution> resolved =
      batch::resolve_jobs(jobs, cache_, config_.threads);
  obs::MetricsRegistry* metrics = config_.telemetry.metrics;
  // The C101s of this request's reads: its ticket reports them, and so does
  // the R120 or R122 that refuses it.
  std::vector<Diagnostic> quarantines;
  for (batch::Resolution& r : resolved)
    if (r.quarantined) quarantines.push_back(*std::move(r.quarantined));
  if (metrics != nullptr && !quarantines.empty())
    metrics->add(obs::Metric::CacheCorruptEntries, quarantines.size());

  std::unique_lock lock(mutex_);
  if (stopping_) throw draining(std::move(quarantines));
  if (metrics != nullptr) metrics->add(obs::Metric::ServeRequests);

  // Classification pass: classify every job before touching any state, so
  // an admission rejection leaves the session exactly as it found it.
  enum class Kind : std::uint8_t { Hit, Attach, New };
  std::vector<Kind> kinds(jobs.size(), Kind::New);
  std::size_t new_jobs = 0;
  std::map<std::string, std::size_t> new_in_request;  // dedup inside one request
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key_id = resolved[i].key.id();
    if (resolved[i].hit) {
      kinds[i] = Kind::Hit;
    } else if (inflight_.count(key_id) != 0 || new_in_request.count(key_id) != 0) {
      kinds[i] = Kind::Attach;
    } else {
      new_in_request.emplace(key_id, i);
      ++new_jobs;
    }
  }
  if (outstanding_ + new_jobs > config_.queue_limit) {
    if (metrics != nullptr) metrics->add(obs::Metric::ServeRejected);
    throw AdmissionError(
        "request needs " + std::to_string(new_jobs) + " queue slot(s) but only " +
        std::to_string(config_.queue_limit - outstanding_) + " of " +
        std::to_string(config_.queue_limit) + " are free",
        std::move(quarantines));
  }

  // Commit pass: the request is now guaranteed to be accepted whole.
  Ticket ticket;
  ticket.session_ = this;
  ticket.id_ = std::move(id);
  ticket.warnings_ = std::move(quarantines);
  ticket.entries_.reserve(jobs.size());
  std::map<std::string, std::shared_ptr<JobEntry>> created;
  bool queued_any = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key_id = resolved[i].key.id();
    if (kinds[i] == Kind::Hit) {
      auto entry = std::make_shared<JobEntry>();
      entry->key_id = key_id;
      entry->done = true;
      entry->result.label = jobs[i].label;
      entry->result.key = resolved[i].key;
      entry->result.completed = true;
      entry->result.cache_hit = true;
      entry->result.report = *std::move(resolved[i].hit);
      ticket.entries_.push_back(std::move(entry));
      if (metrics != nullptr) {
        metrics->add(obs::Metric::BatchJobs);
        metrics->add(obs::Metric::BatchCacheHits);
      }
      continue;
    }
    if (kinds[i] == Kind::Attach) {
      auto it = inflight_.find(key_id);
      std::shared_ptr<JobEntry> entry =
          it != inflight_.end() ? it->second : created.at(key_id);
      ++entry->interested;
      entry->priority = std::max(entry->priority, priority);
      ticket.entries_.push_back(std::move(entry));
      if (metrics != nullptr) metrics->add(obs::Metric::ServeDedupHits);
      continue;
    }
    auto entry = std::make_shared<JobEntry>();
    entry->job = std::move(jobs[i]);
    entry->job.cancel = &entry->cancel;
    entry->key_id = key_id;
    entry->priority = priority;
    entry->seq = next_seq_++;
    entry->interested = 1;
    entry->result.label = entry->job.label;
    entry->result.key = resolved[i].key;
    inflight_.emplace(key_id, entry);
    created.emplace(key_id, entry);
    pending_.push_back(entry);
    ++outstanding_;
    queued_any = true;
    if (metrics != nullptr) metrics->add(obs::Metric::ServeJobs);
    ticket.entries_.push_back(std::move(entry));
  }
  if (queued_any) work_cv_.notify_one();
  return ticket;
}

void Session::release_interest(
    const std::vector<std::shared_ptr<JobEntry>>& entries) {
  std::lock_guard lock(mutex_);
  obs::MetricsRegistry* metrics = config_.telemetry.metrics;
  for (const auto& entry : entries) {
    if (entry->done) continue;
    if (--entry->interested > 0) continue;
    // Last watcher gone: fire the per-job cancel, and let no new request
    // join the job. A job still waiting in pending_ resolves immediately (its
    // queue slot frees up now); a running one parks at the next trajectory
    // boundary and resolves after the plan.
    entry->cancel.request_stop();
    if (metrics != nullptr) metrics->add(obs::Metric::ServeCancelled);
    inflight_.erase(entry->key_id);
    const auto it = std::find(pending_.begin(), pending_.end(), entry);
    if (it != pending_.end()) {
      pending_.erase(it);
      entry->done = true;
      entry->result.cancelled = true;
      --outstanding_;
    }
  }
  done_cv_.notify_all();
}

void Session::resolve_entry_locked(JobEntry& entry, batch::JobResult result,
                                   std::shared_ptr<const Cycle> cycle) {
  entry.done = true;
  entry.result = std::move(result);
  entry.cycle = std::move(cycle);
  // A cancelled job left inflight_ with its last watcher, and a newer job may
  // hold its key by now.
  const auto it = inflight_.find(entry.key_id);
  if (it != inflight_.end() && it->second.get() == &entry) inflight_.erase(it);
  --outstanding_;
}

void Session::dispatcher_loop() {
  for (;;) {
    std::vector<std::shared_ptr<JobEntry>> entries;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;  // drain() resolves whatever is still pending
      entries = std::move(pending_);
      pending_.clear();
      // Priority order: highest first, FIFO within a priority. The sort is
      // scheduling-only — results are bit-identical in any order.
      std::stable_sort(entries.begin(), entries.end(),
                       [](const auto& a, const auto& b) {
                         return a->priority != b->priority
                                    ? a->priority > b->priority
                                    : a->seq < b->seq;
                       });
    }
    batch::SweepPlan plan;
    plan.threads = config_.threads;
    plan.max_retries = config_.max_retries;
    plan.stall_timeout_s = config_.stall_timeout_s;
    plan.control = &drain_control_;
    plan.jobs.reserve(entries.size());
    for (const auto& entry : entries) plan.jobs.push_back(entry->job);

    obs::Telemetry telemetry = config_.telemetry;
    telemetry.progress = progress_reporter_.get();
    batch::SweepOutcome outcome = batch::run_sweep(plan, cache_, telemetry);
    const auto cycle = std::make_shared<const Cycle>(
        Cycle{outcome.stop_reason, std::move(outcome.warnings)});

    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < entries.size(); ++i)
      resolve_entry_locked(*entries[i], std::move(outcome.results[i]), cycle);
    done_cv_.notify_all();
  }
}

void Session::drain() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    drain_control_.request_stop();
    // Unclaimed jobs resolve now as Interrupted; the dispatcher's in-flight
    // plan stops at the next trajectory boundary and resolves its own entries.
    const auto drained =
        std::make_shared<const Cycle>(Cycle{smc::StopReason::Interrupted, {}});
    for (const auto& entry : pending_) {
      entry->done = true;
      entry->cycle = drained;
      inflight_.erase(entry->key_id);
      --outstanding_;
    }
    pending_.clear();
    work_cv_.notify_all();
    done_cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace fmtree::serve
