#include "smc/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::smc {

namespace {

/// Trajectories per chunk: the unit of claiming, parking and folding.
/// Scheduling only — trajectory identity lives in the counter streams.
constexpr std::uint64_t kChunk = 64;
/// Trajectories between a worker's polls: every kPoll trajectories of a
/// chunk, and at its end, the worker publishes its count, beats its heartbeat,
/// offers progress and checks for a stop or a cancel.
constexpr std::uint64_t kPoll = 16;
/// A claim waits while it is this many chunks per worker ahead of the
/// oldest unfolded chunk. Wide enough that a worker descheduled for a few
/// milliseconds on a loaded host does not stall the others: on 4 cores with
/// one busy process beside a 4-thread run, 4 per worker ran 24% slower than
/// 32, and 128 was no faster than 32.
constexpr std::uint64_t kWindowPerWorker = 32;

/// One claimed chunk and the buffer its results land in.
struct Chunk {
  std::size_t job = 0;
  std::uint64_t index = 0;   ///< chunk number within the job
  std::uint64_t ticket = 0;  ///< claim number across the pool
  std::uint64_t size = 0;    ///< trajectories planned
  std::uint64_t count = 0;   ///< trajectories simulated; < size when cut short
  std::vector<sim::TrajectoryResult> results = std::vector<sim::TrajectoryResult>(kChunk);
};

/// Scheduling state of one job.
struct JobState {
  PoolJob* job = nullptr;
  std::uint64_t chunks = 0;
  // Guarded by Pool::mutex_.
  std::uint64_t claimed = 0;    ///< chunks [0, claimed) have been handed out
  std::uint64_t next_fold = 0;  ///< the chunk the fold needs next
  bool folding = false;         ///< a worker is folding this job
  // Written under Pool::mutex_, polled without it.
  std::atomic<bool> cut{false};   ///< cancelled: ends at its completed prefix
  std::atomic<bool> done{false};  ///< nothing more will be folded
  std::atomic<std::uint64_t> simulated{0};

  /// Cut or done: the job runs no further trajectory.
  bool closed() const noexcept {
    return cut.load(std::memory_order_acquire) || done.load(std::memory_order_acquire);
  }
};

/// Per-worker liveness signal for the stall watchdog: beats advance with
/// every claimed chunk and every poll; active drops when the worker exits.
struct alignas(64) Heartbeat {
  std::atomic<std::uint64_t> beats{0};
  std::atomic<bool> active{true};
};

class Pool {
public:
  Pool(std::span<PoolJob> jobs, const PoolOptions& options);
  PoolOutcome run();

private:
  void work(unsigned w) noexcept;
  std::unique_ptr<Chunk> claim();
  void simulate(Chunk& chunk, sim::BatchWorkspace& ws, Heartbeat& heartbeat);
  void complete(std::unique_ptr<Chunk> chunk, obs::LocalMetrics& local);
  void count(const sim::TrajectoryResult& r, obs::LocalMetrics& local) const;
  bool halted(JobState& s);
  bool stopped() const noexcept {
    return stop_.load(std::memory_order_acquire) != StopReason::None;
  }
  void stop(StopReason reason);
  void abort(std::exception_ptr error);
  void fail(std::size_t j, std::exception_ptr error);
  void finish(std::size_t j);
  void recycle(std::unique_ptr<Chunk> chunk);
  void watch();

  const PoolOptions& options_;
  std::vector<JobState> jobs_;
  std::uint64_t total_chunks_ = 0;
  std::uint64_t total_trajectories_ = 0;
  unsigned workers_ = 0;
  std::uint64_t window_ = 0;
  std::unique_ptr<Heartbeat[]> heartbeats_;

  std::mutex mutex_;
  std::condition_variable cv_;  ///< wakes claims waiting on the window
  // Guarded by mutex_.
  std::size_t cursor_ = 0;  ///< first job that may still have chunks to claim
  std::uint64_t next_ticket_ = 0;
  std::uint64_t folded_chunks_ = 0;  ///< chunks that handed their fold a trajectory
  std::set<std::uint64_t> outstanding_;  ///< tickets claimed, not yet retired
  std::vector<std::unique_ptr<Chunk>> parked_;
  std::vector<std::unique_ptr<Chunk>> free_;

  std::atomic<StopReason> stop_{StopReason::None};
  std::atomic<std::uint64_t> simulated_{0};
  std::atomic<bool> running_{true};
  std::string stall_;  ///< written by the watchdog before it stops the pool
  std::exception_ptr error_;  ///< a failure of the pool itself (guarded by mutex_)
};

Pool::Pool(std::span<PoolJob> jobs, const PoolOptions& options)
    : options_(options), jobs_(jobs.size()) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs_[j].job = &jobs[j];
    jobs_[j].chunks = (jobs[j].trajectories + kChunk - 1) / kChunk;
    total_chunks_ += jobs_[j].chunks;
    total_trajectories_ += jobs[j].trajectories;
  }
}

PoolOutcome Pool::run() {
  PoolOutcome out;
  if (total_chunks_ == 0) return out;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  workers_ = static_cast<unsigned>(std::min<std::uint64_t>(
      options_.threads != 0 ? options_.threads : hardware, total_chunks_));
  window_ = kWindowPerWorker * workers_;
  heartbeats_ = std::make_unique<Heartbeat[]>(workers_);

  std::thread watchdog;
  std::vector<std::thread> threads;
  try {
    if (options_.stall_timeout_s > 0) watchdog = std::thread([this] { watch(); });
    threads.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w) threads.emplace_back([this, w] { work(w); });
  } catch (...) {  // could not start a thread
    abort(std::current_exception());
  }
  work(0);
  for (std::thread& t : threads) t.join();
  running_.store(false, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  if (error_) std::rethrow_exception(error_);

  out.stop_reason = stop_.load(std::memory_order_acquire);
  out.chunks = folded_chunks_;
  out.trajectories = simulated_.load(std::memory_order_relaxed);
  out.stall = stall_;
  return out;
}

void Pool::work(unsigned w) noexcept {
  try {
    sim::BatchWorkspace ws;  // reused across all of this worker's chunks
    obs::MetricsRegistry* metrics = options_.telemetry.metrics;
    obs::LocalMetrics local;
    while (std::unique_ptr<Chunk> chunk = claim()) {
      heartbeats_[w].beats.fetch_add(1, std::memory_order_relaxed);
      simulate(*chunk, ws, heartbeats_[w]);
      complete(std::move(chunk), local);
    }
    if (metrics != nullptr) metrics->merge(local);
  } catch (...) {
    // Chunk and fold errors are the jobs' own; what reaches here is the
    // pool's bookkeeping running out of memory.
    abort(std::current_exception());
  }
  heartbeats_[w].active.store(false, std::memory_order_release);
}

std::unique_ptr<Chunk> Pool::claim() {
  std::unique_lock lock(mutex_);
  if (stopped()) return nullptr;
  for (; cursor_ < jobs_.size(); ++cursor_) {
    const JobState& s = jobs_[cursor_];
    if (s.claimed < s.chunks && !s.closed()) break;
  }
  if (cursor_ == jobs_.size()) return nullptr;
  JobState& s = jobs_[cursor_];
  std::unique_ptr<Chunk> chunk;
  if (free_.empty()) {
    chunk = std::make_unique<Chunk>();
  } else {
    chunk = std::move(free_.back());
    free_.pop_back();
  }
  chunk->job = cursor_;
  chunk->index = s.claimed++;
  chunk->ticket = next_ticket_++;
  chunk->size = std::min(kChunk, s.job->trajectories - chunk->index * kChunk);
  chunk->count = 0;
  outstanding_.insert(chunk->ticket);
  // The reorder window. A woken chunk of a stopped, cut or finished job runs
  // no trajectory; completing it empty lets its job's fold settle.
  cv_.wait(lock, [&] {
    return chunk->ticket - *outstanding_.begin() < window_ || stopped() || s.closed();
  });
  return chunk;
}

void Pool::simulate(Chunk& chunk, sim::BatchWorkspace& ws, Heartbeat& heartbeat) {
  JobState& s = jobs_[chunk.job];
  const PoolJob& job = *s.job;
  if (halted(s)) return;
  try {
    auto span = obs::maybe_span(job.span.empty() ? nullptr : options_.telemetry.tracer,
                                job.span);
    if (options_.fault_site != nullptr) (void)fault::fault_point(options_.fault_site);
    if (halted(s)) return;
    const std::uint64_t first = job.first + chunk.index * kChunk;
    for (std::uint64_t i = 0; i < chunk.size;) {
      job.executor->run(job.seed, first + i, *job.options, ws, chunk.results[i]);
      if (++i % kPoll != 0 && i < chunk.size) continue;
      const std::uint64_t n = i - chunk.count;
      chunk.count = i;
      simulated_.fetch_add(n, std::memory_order_relaxed);
      s.simulated.fetch_add(n, std::memory_order_relaxed);
      heartbeat.beats.fetch_add(1, std::memory_order_relaxed);
      obs::ProgressReporter* progress = options_.telemetry.progress;
      if (progress != nullptr && progress->due()) {
        obs::Progress p;
        p.phase = options_.progress_phase;
        p.done = simulated_.load(std::memory_order_relaxed);
        p.total = total_trajectories_;
        progress->update(p);
      }
      if (halted(s)) return;
    }
  } catch (...) {
    fail(chunk.job, std::current_exception());
  }
}

void Pool::complete(std::unique_ptr<Chunk> chunk, obs::LocalMetrics& local) {
  const std::size_t j = chunk->job;
  JobState& s = jobs_[j];
  std::unique_lock lock(mutex_);
  if (s.done.load(std::memory_order_relaxed)) {
    recycle(std::move(chunk));
    return;
  }
  parked_.push_back(std::move(chunk));
  if (s.folding) return;  // that worker folds this chunk when its turn comes
  s.folding = true;
  while (!s.done.load(std::memory_order_relaxed)) {
    const auto it = std::find_if(parked_.begin(), parked_.end(), [&](const auto& c) {
      return c->job == j && c->index == s.next_fold;
    });
    if (it == parked_.end()) break;
    std::unique_ptr<Chunk> next = std::move(*it);
    parked_.erase(it);
    lock.unlock();
    std::uint64_t folded = 0;
    bool more = true;
    std::exception_ptr error;
    try {
      for (; more && folded < next->count; ++folded) {
        sim::TrajectoryResult& r = next->results[folded];
        if (options_.telemetry.metrics != nullptr) count(r, local);
        more = s.job->fold(r);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    s.job->folded += folded;
    if (folded > 0) ++folded_chunks_;
    if (error) {
      if (!s.job->error) s.job->error = error;
      finish(j);
    } else if (!more) {
      s.job->ended = true;
      finish(j);
    } else if (next->count < next->size || ++s.next_fold == s.chunks) {
      finish(j);  // a chunk cut short ends the job's prefix
    }
    recycle(std::move(next));
  }
  s.folding = false;
}

void Pool::count(const sim::TrajectoryResult& r, obs::LocalMetrics& local) const {
  using enum obs::Metric;
  if (options_.sweep_counters) {
    local.add(BatchTrajectories);
    local.add(BatchEvents, r.events);
    return;
  }
  local.add(SmcTrajectories);
  local.add(SmcEvents, r.events);
  local.add(SmcFailures, r.failures);
  local.add(SmcRepairs, r.repairs);
  local.add(SmcInspections, r.inspections);
  local.add(SmcReplacements, r.replacements);
  local.observe(SmcEventsPerTrajectory, static_cast<double>(r.events));
}

bool Pool::halted(JobState& s) {
  if (stopped() || s.closed()) return true;
  if (options_.control != nullptr) {
    const StopReason r = options_.control->should_stop(
        options_.simulated_before + simulated_.load(std::memory_order_relaxed));
    if (r != StopReason::None) {
      stop(r);
      return true;
    }
  }
  const RunControl* cancel = s.job->cancel;
  const std::uint64_t job_done = s.simulated.load(std::memory_order_relaxed);
  if (cancel != nullptr && cancel->should_stop(job_done) != StopReason::None) {
    std::lock_guard lock(mutex_);
    s.job->cancelled = true;
    s.cut.store(true, std::memory_order_release);
    cv_.notify_all();
    return true;
  }
  return false;
}

void Pool::stop(StopReason reason) {
  std::lock_guard lock(mutex_);
  StopReason expected = StopReason::None;
  stop_.compare_exchange_strong(expected, reason, std::memory_order_acq_rel);
  cv_.notify_all();
}

/// A failure of the pool itself: stops every job; run() rethrows it.
void Pool::abort(std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::move(error);
  }
  stop(StopReason::Interrupted);
}

void Pool::fail(std::size_t j, std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  if (jobs_[j].done.load(std::memory_order_relaxed)) return;
  jobs_[j].job->error = std::move(error);
  finish(j);
}

void Pool::finish(std::size_t j) {
  jobs_[j].done.store(true, std::memory_order_release);
  for (auto it = parked_.begin(); it != parked_.end();) {
    if ((*it)->job == j) {
      recycle(std::move(*it));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  cv_.notify_all();
}

void Pool::recycle(std::unique_ptr<Chunk> chunk) {
  const bool oldest = chunk->ticket == *outstanding_.begin();
  outstanding_.erase(chunk->ticket);
  free_.push_back(std::move(chunk));
  if (oldest) cv_.notify_all();
}

// The stall watchdog: any stall_timeout_s window without a single simulated
// trajectory stops the pool with a diagnostic naming the workers whose
// heartbeats went silent. It only ever stops the pool — it never unsticks a
// worker, so run() still joins stalled workers when they come back.
void Pool::watch() {
  using clock = std::chrono::steady_clock;
  const auto timeout = std::chrono::duration<double>(options_.stall_timeout_s);
  const auto poll =
      std::chrono::duration<double>(std::min(options_.stall_timeout_s / 8.0, 0.05));
  std::vector<std::uint64_t> seen(workers_, 0);
  std::uint64_t last_done = simulated_.load(std::memory_order_relaxed);
  auto last_progress = clock::now();
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const std::uint64_t cur = simulated_.load(std::memory_order_relaxed);
    if (cur != last_done) {
      last_done = cur;
      last_progress = clock::now();
      continue;
    }
    if (clock::now() - last_progress < timeout) continue;
    std::string silent;
    bool any_active = false;
    for (unsigned w = 0; w < workers_; ++w) {
      const std::uint64_t beats = heartbeats_[w].beats.load(std::memory_order_relaxed);
      if (heartbeats_[w].active.load(std::memory_order_acquire)) {
        any_active = true;
        if (beats == seen[w]) silent += (silent.empty() ? "" : ", ") + std::to_string(w);
      }
      seen[w] = beats;
    }
    if (!any_active) break;  // the pool is draining on its own
    stall_ = "pool watchdog: no trajectory progress for " +
             std::to_string(options_.stall_timeout_s) + "s; silent worker(s): " +
             (silent.empty() ? "(none — chunks not being claimed)" : silent);
    stop(StopReason::Stalled);
    break;
  }
}

}  // namespace

PoolOutcome run_pool(std::span<PoolJob> jobs, const PoolOptions& options) {
  return Pool(jobs, options).run();
}

}  // namespace fmtree::smc
