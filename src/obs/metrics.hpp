// Lock-cheap metrics from one catalogue: counters, gauges and histograms.
//
// Every metric is an obs::Metric, declared once in kMetrics with its name,
// kind and histogram shape; DESIGN.md's table ("Observability") is held to
// kMetrics by a unit test. Nothing registers a metric. Cold paths record
// through MetricsRegistry::add/set under its mutex; the Monte-Carlo hot path
// records into a per-thread LocalMetrics (one flat array, no locks, no
// atomics) that each worker folds into the registry once, at a batch
// boundary.
//
// Metrics are observational only: they count work the analysis performs and
// never influence it, so enabling metrics changes no analysis output bit.
// Counter totals derived from per-trajectory quantities (trajectories,
// events, failures) are deterministic for a given (seed, trajectory count)
// at any thread count; wall-clock-dependent values are kept out of counters.
//
// JSON export follows the stable schema "fmtree.metrics/v1" and lists every
// counter and histogram of the catalogue, plus each gauge once it is set:
//   { "schema": "fmtree.metrics/v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": <double>, ... },
//     "histograms": { "<name>": { "lo": .., "hi": .., "counts": [..],
//                                 "underflow": .., "overflow": .., "total": .. } } }
// Keys are emitted in sorted order so the output is diffable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace fmtree::obs {

/// Every metric, one enumerator per kMetrics row.
enum class Metric : std::uint8_t {
  SmcTrajectories,
  SmcEvents,
  SmcFailures,
  SmcRepairs,
  SmcInspections,
  SmcReplacements,
  SmcBatches,
  SmcEventsPerTrajectory,
  SolverIterations,
  SolverResidual,
  SolverStates,
  BatchJobs,
  BatchJobsSimulated,
  BatchTasks,
  BatchTrajectories,
  BatchEvents,
  BatchCacheHits,
  BatchCacheMisses,
  SweepRetries,
  SweepJobFailures,
  CacheCorruptEntries,
  FaultInjected,
  ServeRequests,
  ServeRejected,
  ServeJobs,
  ServeDedupHits,
  ServeCancelled,
  FleetJoints,
  FleetJobsFailed,
  Count
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

struct MetricRow {
  Metric metric;
  std::string_view name;
  MetricKind kind;
  /// A histogram's `bins` fixed-width bins over [lo, hi), plus underflow and
  /// overflow counts.
  double lo = 0.0;
  double hi = 0.0;
  std::size_t bins = 0;
};

/// The catalogue. DESIGN.md's table says what each metric means.
inline constexpr MetricRow kMetrics[] = {
    {Metric::SmcTrajectories, "smc.trajectories", MetricKind::Counter},
    {Metric::SmcEvents, "smc.events", MetricKind::Counter},
    {Metric::SmcFailures, "smc.failures", MetricKind::Counter},
    {Metric::SmcRepairs, "smc.repairs", MetricKind::Counter},
    {Metric::SmcInspections, "smc.inspections", MetricKind::Counter},
    {Metric::SmcReplacements, "smc.replacements", MetricKind::Counter},
    {Metric::SmcBatches, "smc.batches", MetricKind::Counter},
    {Metric::SmcEventsPerTrajectory, "smc.events_per_trajectory", MetricKind::Histogram,
     0.0, 1024.0, 64},
    {Metric::SolverIterations, "solver.iterations", MetricKind::Counter},
    {Metric::SolverResidual, "solver.residual", MetricKind::Gauge},
    {Metric::SolverStates, "solver.states", MetricKind::Gauge},
    {Metric::BatchJobs, "batch.jobs", MetricKind::Counter},
    {Metric::BatchJobsSimulated, "batch.jobs_simulated", MetricKind::Counter},
    {Metric::BatchTasks, "batch.tasks", MetricKind::Counter},
    {Metric::BatchTrajectories, "batch.trajectories", MetricKind::Counter},
    {Metric::BatchEvents, "batch.events", MetricKind::Counter},
    {Metric::BatchCacheHits, "batch.cache.hits", MetricKind::Counter},
    {Metric::BatchCacheMisses, "batch.cache.misses", MetricKind::Counter},
    {Metric::SweepRetries, "sweep.retries", MetricKind::Counter},
    {Metric::SweepJobFailures, "sweep.job_failures", MetricKind::Counter},
    {Metric::CacheCorruptEntries, "cache.corrupt_entries", MetricKind::Counter},
    {Metric::FaultInjected, "fault.injected", MetricKind::Counter},
    {Metric::ServeRequests, "serve.requests", MetricKind::Counter},
    {Metric::ServeRejected, "serve.rejected", MetricKind::Counter},
    {Metric::ServeJobs, "serve.jobs", MetricKind::Counter},
    {Metric::ServeDedupHits, "serve.dedup_hits", MetricKind::Counter},
    {Metric::ServeCancelled, "serve.cancelled", MetricKind::Counter},
    {Metric::FleetJoints, "fleet.joints", MetricKind::Counter},
    {Metric::FleetJobsFailed, "fleet.jobs_failed", MetricKind::Counter},
};

inline constexpr std::size_t kMetricCount = static_cast<std::size_t>(Metric::Count);

constexpr bool one_row_per_metric() {
  if (std::size(kMetrics) != kMetricCount) return false;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricRow& row = kMetrics[i];
    if (row.metric != static_cast<Metric>(i)) return false;
    const bool histogram = row.kind == MetricKind::Histogram;
    if (histogram != (row.bins > 0) || (histogram && !(row.hi > row.lo))) return false;
    for (std::size_t j = 0; j < i; ++j)
      if (kMetrics[j].name == row.name) return false;
  }
  return true;
}
static_assert(one_row_per_metric(), "one kMetrics row per Metric, in enum order, "
                                    "unique names, a shape for histograms alone");

/// A metric where one of kind K is expected: the conversion from Metric runs at
/// compile time, so passing a metric of another kind does not compile.
template <MetricKind K>
struct MetricOf {
  consteval MetricOf(Metric m) : metric(m) {
    if (kMetrics[static_cast<std::size_t>(m)].kind != K) throw "a metric of another kind";
  }
  Metric metric;
};
using CounterMetric = MetricOf<MetricKind::Counter>;
using GaugeMetric = MetricOf<MetricKind::Gauge>;
using HistogramMetric = MetricOf<MetricKind::Histogram>;

namespace detail {

/// Where each metric's cells start in a LocalMetrics: one per counter,
/// bins + 2 per histogram (the bins, then underflow and overflow), none per
/// gauge. The last entry is the total.
constexpr std::array<std::size_t, kMetricCount + 1> cell_offsets() {
  std::array<std::size_t, kMetricCount + 1> offsets{};
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricRow& row = kMetrics[i];
    const std::size_t cells = row.kind == MetricKind::Counter     ? 1
                              : row.kind == MetricKind::Histogram ? row.bins + 2
                                                                  : 0;
    offsets[i + 1] = offsets[i] + cells;
  }
  return offsets;
}
inline constexpr auto kCellOffsets = cell_offsets();

constexpr std::size_t index(Metric m) { return static_cast<std::size_t>(m); }

}  // namespace detail

/// Per-thread accumulator of the catalogue's counters and histograms: one
/// fixed flat array, no synchronisation. Accumulate freely on one thread,
/// then fold it into a registry with MetricsRegistry::merge() at a batch
/// boundary (merge resets it, so one LocalMetrics serves many batches).
class LocalMetrics {
public:
  /// Adds to a counter.
  void add(CounterMetric counter, std::uint64_t delta = 1) noexcept {
    cells_[detail::kCellOffsets[detail::index(counter.metric)]] += delta;
  }

  /// Records one observation of a histogram.
  void observe(HistogramMetric histogram, double x) noexcept {
    const MetricRow& row = kMetrics[detail::index(histogram.metric)];
    std::size_t cell = row.bins;  // underflow
    if (!(x < row.lo)) {
      const auto bin =
          static_cast<std::size_t>((x - row.lo) / ((row.hi - row.lo) / double(row.bins)));
      cell = bin < row.bins ? bin : row.bins + 1;  // else overflow
    }
    ++cells_[detail::kCellOffsets[detail::index(histogram.metric)] + cell];
  }

private:
  friend class MetricsRegistry;

  std::array<std::uint64_t, detail::kCellOffsets.back()> cells_{};
};

/// The thread-safe totals of every metric. Direct mutation (add/set) takes
/// the registry mutex — fine for per-batch or per-phase events; hot loops,
/// and every histogram observation, go through LocalMetrics instead.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void add(CounterMetric counter, std::uint64_t delta = 1);
  void set(GaugeMetric gauge, double value);

  /// Folds a local accumulator into the registry and resets it.
  void merge(LocalMetrics& local);

  /// Read-back of one counter by name; a name that is not a counter of the
  /// catalogue reads 0. (Gauges and histograms are read through to_json().)
  std::uint64_t counter_value(std::string_view name) const;

  /// Stable-schema JSON rendering ("fmtree.metrics/v1"), keys sorted.
  std::string to_json() const;

private:
  mutable std::mutex mutex_;
  LocalMetrics totals_;
  std::array<std::optional<double>, kMetricCount> gauges_{};
};

}  // namespace fmtree::obs
