#include "smc/runner.hpp"

#include <atomic>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"

namespace fmtree::smc {

namespace {

/// Sparse per-trajectory copy of the integer leaf counters, kept only when a
/// RunControl may truncate the batch: eager accumulation into the worker
/// totals would contaminate them with trajectories beyond the delivered
/// prefix, so the totals are rebuilt from the surviving deltas instead.
struct LeafDelta {
  std::uint32_t leaf = 0;
  std::uint32_t failures = 0;
  std::uint32_t repairs = 0;
};

/// Metric handles of one batch; registered up front (idempotent name
/// lookups) so the worker loop touches nothing but dense local arrays.
struct BatchMetricIds {
  obs::CounterId trajectories, events, failures, repairs, inspections,
      replacements, log_records_dropped;
  obs::HistogramId events_per_trajectory;
};

BatchMetricIds register_batch_metrics(obs::MetricsRegistry& registry) {
  BatchMetricIds ids;
  ids.trajectories = registry.counter("smc.trajectories");
  ids.events = registry.counter("smc.events");
  ids.failures = registry.counter("smc.failures");
  ids.repairs = registry.counter("smc.repairs");
  ids.inspections = registry.counter("smc.inspections");
  ids.replacements = registry.counter("smc.replacements");
  ids.log_records_dropped = registry.counter("smc.failure_log_records_dropped");
  ids.events_per_trajectory =
      registry.histogram("smc.events_per_trajectory", 0.0, 1024.0, 64);
  return ids;
}

/// Trajectories per scheduling unit: chunk c runs on worker c % workers,
/// chunks in increasing order per worker. Scheduling only — trajectory
/// identity lives in the counter streams, so results do not depend on it.
constexpr std::uint64_t kChunk = 64;

}  // namespace

TrajectorySummary summarize(const sim::TrajectoryResult& r) {
  TrajectorySummary s;
  s.first_failure_time = r.first_failure_time;
  s.failures = static_cast<std::uint32_t>(r.failures);
  s.downtime = r.downtime;
  s.cost = r.cost;
  s.discounted_total = r.discounted_cost.total();
  s.inspections = static_cast<std::uint32_t>(r.inspections);
  s.repairs = static_cast<std::uint32_t>(r.repairs);
  s.replacements = static_cast<std::uint32_t>(r.replacements);
  return s;
}

ParallelRunner::ParallelRunner(const fmt::FaultMaintenanceTree& model, unsigned threads)
    : executor_(model),
      threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

BatchResult ParallelRunner::run(std::uint64_t seed, std::uint64_t first,
                                std::uint64_t count, const sim::SimOptions& opts,
                                const RunControl* control) const {
  const std::size_t num_leaves = executor_.model().num_ebes();
  obs::MetricsRegistry* metrics = opts.telemetry.metrics;
  obs::ProgressReporter* progress = opts.telemetry.progress;
  const BatchMetricIds metric_ids =
      metrics != nullptr ? register_batch_metrics(*metrics) : BatchMetricIds{};

  BatchResult out;
  out.summaries.resize(count);
  out.failures_per_leaf.assign(num_leaves, 0);
  out.repairs_per_leaf.assign(num_leaves, 0);
  if (opts.record_failure_log) out.failure_logs.resize(count);

  const std::uint64_t num_chunks = (count + kChunk - 1) / kChunk;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::uint64_t>(threads_, std::max<std::uint64_t>(num_chunks, 1)));

  // Per-worker integer accumulators; merged below (integers commute). Used
  // only on the uncontrolled path, where every trajectory survives.
  std::vector<std::vector<std::uint64_t>> worker_failures(
      workers, std::vector<std::uint64_t>(num_leaves, 0));
  std::vector<std::vector<std::uint64_t>> worker_repairs(
      workers, std::vector<std::uint64_t>(num_leaves, 0));

  // Controlled path: per-trajectory sparse deltas plus, per worker, the
  // first index it did NOT complete. Each worker runs its chunks in
  // increasing index order, so every index below
  //   k = min_w first_uncompleted[w]
  // is complete — k is the longest exact prefix.
  std::vector<std::vector<LeafDelta>> deltas(control != nullptr ? count : 0);
  std::vector<std::uint64_t> first_uncompleted(workers, count);
  std::atomic<std::uint64_t> done{0};
  std::atomic<StopReason> stop{StopReason::None};

  // Failure-log memory cap: a shared budget of records. A trajectory whose
  // log does not fit is delivered without its log and the batch flagged.
  std::atomic<std::int64_t> log_budget{
      static_cast<std::int64_t>(std::min<std::uint64_t>(
          opts.failure_log_cap, std::uint64_t{1} << 62))};
  std::atomic<bool> logs_truncated{false};

  // Progress needs a cross-worker completion count; the controlled path
  // maintains one anyway.
  const bool count_done = control != nullptr || progress != nullptr;

  // Polls the control before every kernel block; true = stop here.
  const auto stopping = [&]() {
    if (control == nullptr) return false;
    StopReason r = stop.load(std::memory_order_acquire);
    // Budgets count trajectories globally: `first` carries the completed
    // count of earlier batches (adaptive drivers pass it that way), so a
    // budget smaller than the remaining work stops mid-batch.
    if (r == StopReason::None &&
        (r = control->should_stop(first + done.load(std::memory_order_relaxed))) !=
            StopReason::None) {
      StopReason expected = StopReason::None;
      stop.compare_exchange_strong(expected, r, std::memory_order_acq_rel);
    }
    return r != StopReason::None;
  };

  auto work = [&](unsigned w) {
    sim::BatchWorkspace ws;  // reused across all of this worker's blocks
    obs::LocalMetrics local =
        metrics != nullptr ? metrics->local() : obs::LocalMetrics{};
    std::uint64_t chunk_end = 0;  // of the chunk in flight
    bool last_chunk = false;      // ... and whether it is this worker's last
    const auto on_block = [&](std::uint64_t index,
                              std::span<sim::TrajectoryResult> block) {
      for (std::size_t lane = 0; lane < block.size(); ++lane) {
        const std::uint64_t i = index - first + lane;
        sim::TrajectoryResult& r = block[lane];
        out.summaries[i] = summarize(r);
        if (control == nullptr) {
          for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
            worker_failures[w][leaf] += r.failures_per_leaf[leaf];
            worker_repairs[w][leaf] += r.repairs_per_leaf[leaf];
          }
        } else {
          for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
            if (r.failures_per_leaf[leaf] != 0 || r.repairs_per_leaf[leaf] != 0)
              deltas[i].push_back(
                  LeafDelta{static_cast<std::uint32_t>(leaf),
                            static_cast<std::uint32_t>(r.failures_per_leaf[leaf]),
                            static_cast<std::uint32_t>(r.repairs_per_leaf[leaf])});
          }
        }
        if (opts.record_failure_log) {
          const auto need = static_cast<std::int64_t>(r.failure_log.size());
          if (need == 0 ||
              log_budget.fetch_sub(need, std::memory_order_relaxed) >= need) {
            out.failure_logs[i] = std::move(r.failure_log);
          } else {
            log_budget.fetch_add(need, std::memory_order_relaxed);
            logs_truncated.store(true, std::memory_order_relaxed);
            local.add(metric_ids.log_records_dropped, static_cast<std::uint64_t>(need));
          }
        }
        if (metrics != nullptr) {
          local.add(metric_ids.trajectories);
          local.add(metric_ids.events, r.events);
          local.add(metric_ids.failures, r.failures);
          local.add(metric_ids.repairs, r.repairs);
          local.add(metric_ids.inspections, r.inspections);
          local.add(metric_ids.replacements, r.replacements);
          local.observe(metric_ids.events_per_trajectory, static_cast<double>(r.events));
        }
      }
      if (count_done) done.fetch_add(block.size(), std::memory_order_relaxed);
      if (progress != nullptr && progress->due()) {
        obs::Progress p;
        p.phase = "simulate";
        p.done = first + done.load(std::memory_order_relaxed);
        p.total = first + count;
        progress->update(p);
      }
      // Poll before the next block; after this worker's last one there is
      // nothing left to stop.
      const std::uint64_t end = index - first + block.size();
      if ((last_chunk && end == chunk_end) || !stopping()) return true;
      first_uncompleted[w] = end;
      return false;
    };
    for (std::uint64_t c = w; c < num_chunks; c += workers) {
      const std::uint64_t begin = c * kChunk;
      if (stopping()) {
        first_uncompleted[w] = begin;
        break;
      }
      chunk_end = std::min(begin + kChunk, count);
      last_chunk = c + workers >= num_chunks;
      executor_.run(seed, first + begin, chunk_end - begin, opts, ws, on_block);
      if (first_uncompleted[w] != count) break;
    }
    if (metrics != nullptr) metrics->merge(local);
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }
  out.failure_logs_truncated = logs_truncated.load(std::memory_order_relaxed);

  if (control == nullptr) {
    out.completed = count;
    for (unsigned w = 0; w < workers; ++w) {
      for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
        out.failures_per_leaf[leaf] += worker_failures[w][leaf];
        out.repairs_per_leaf[leaf] += worker_repairs[w][leaf];
      }
    }
    return out;
  }

  std::uint64_t prefix = count;
  for (unsigned w = 0; w < workers; ++w)
    prefix = std::min(prefix, first_uncompleted[w]);
  out.completed = prefix;
  out.truncated = prefix < count;
  out.stop_reason =
      out.truncated ? stop.load(std::memory_order_acquire) : StopReason::None;
  out.summaries.resize(prefix);
  if (opts.record_failure_log) out.failure_logs.resize(prefix);
  for (std::uint64_t i = 0; i < prefix; ++i) {
    for (const LeafDelta& d : deltas[i]) {
      out.failures_per_leaf[d.leaf] += d.failures;
      out.repairs_per_leaf[d.leaf] += d.repairs;
    }
  }
  return out;
}

}  // namespace fmtree::smc
