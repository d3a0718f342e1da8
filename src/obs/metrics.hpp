// Lock-cheap metrics: named counters, gauges and histograms.
//
// Two-level design keeps the Monte-Carlo hot path allocation-free and
// uncontended: each worker thread owns a LocalMetrics accumulator (plain
// arrays, no locks, no atomics) and folds it into the shared MetricsRegistry
// exactly once, at a batch boundary, under the registry mutex. Registration
// (name -> dense id) also takes the mutex but happens once per run, before
// the workers start.
//
// Metrics are observational only: they count work the analysis performs and
// never influence it, so enabling metrics changes no analysis output bit.
// Counter totals derived from per-trajectory quantities (trajectories,
// events, failures) are deterministic for a given (seed, trajectory count)
// at any thread count; wall-clock-dependent values are not and are kept out
// of counters by convention (see DESIGN.md, "Observability" for the metric
// name catalogue).
//
// JSON export follows the stable schema "fmtree.metrics/v1":
//   { "schema": "fmtree.metrics/v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": <double>, ... },
//     "histograms": { "<name>": { "lo": .., "hi": .., "counts": [..],
//                                 "underflow": .., "overflow": .., "total": .. } } }
// Keys are emitted in sorted order so the output is diffable.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fmtree::obs {

/// Dense registry-assigned metric handles. Cheap to copy; valid only for the
/// registry that issued them. A default-constructed id is invalid and safely
/// ignored by LocalMetrics.
struct CounterId {
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  bool valid() const noexcept {
    return index != std::numeric_limits<std::uint32_t>::max();
  }
};
struct GaugeId {
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  bool valid() const noexcept {
    return index != std::numeric_limits<std::uint32_t>::max();
  }
};
struct HistogramId {
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  bool valid() const noexcept {
    return index != std::numeric_limits<std::uint32_t>::max();
  }
};

class MetricsRegistry;

/// Per-thread accumulator: plain arrays, no synchronisation. Obtain one via
/// MetricsRegistry::local(), accumulate freely on one thread, then fold it
/// back with MetricsRegistry::merge() at a batch boundary (merge resets the
/// local state, so one LocalMetrics serves many batches).
class LocalMetrics {
public:
  LocalMetrics() = default;

  /// Adds to a counter. Invalid ids are ignored; ids registered after this
  /// accumulator was created grow the arrays on first use (cold path).
  void add(CounterId c, std::uint64_t delta = 1) {
    if (!c.valid()) return;
    if (c.index >= counters_.size()) counters_.resize(c.index + 1, 0);
    counters_[c.index] += delta;
  }

  /// Records one histogram observation.
  void observe(HistogramId h, double x) {
    if (!h.valid() || h.index >= hists_.size()) return;
    hists_[h.index].observe(x);
  }

  bool empty() const noexcept { return counters_.empty() && hists_.empty(); }

private:
  friend class MetricsRegistry;

  struct LocalHist {
    double lo = 0.0;
    double width = 1.0;  // bin width
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;

    void observe(double x) noexcept {
      if (x < lo) {
        ++underflow;
        return;
      }
      const auto bin = static_cast<std::size_t>((x - lo) / width);
      if (bin >= counts.size()) {
        ++overflow;
        return;
      }
      ++counts[bin];
    }
  };

  std::vector<std::uint64_t> counters_;
  std::vector<LocalHist> hists_;
};

/// Thread-safe registry of named metrics. Registration is idempotent: asking
/// for an existing name returns the same id (histograms must re-specify the
/// same shape). Direct mutation (add/set) takes the registry mutex — fine
/// for per-batch or per-phase events; hot loops, and every histogram
/// observation, go through LocalMetrics instead.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  /// Fixed-width histogram over [lo, hi) with `bins` bins plus
  /// underflow/overflow counters. Throws DomainError on a bad shape or a
  /// shape mismatch with an existing histogram of the same name.
  HistogramId histogram(std::string_view name, double lo, double hi, std::size_t bins);

  void add(CounterId c, std::uint64_t delta = 1);
  void set(GaugeId g, double value);

  /// A local accumulator pre-sized for everything registered so far.
  LocalMetrics local() const;
  /// Folds a local accumulator into the registry and resets it.
  void merge(LocalMetrics& local);

  /// Read-back of one counter; an unknown name returns 0. (Gauges and
  /// histograms are read through to_json().)
  std::uint64_t counter_value(std::string_view name) const;

  /// Stable-schema JSON rendering ("fmtree.metrics/v1"), keys sorted.
  std::string to_json() const;

private:
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    double value = 0.0;
    bool set = false;
  };
  struct Hist {
    std::string name;
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
  };

  std::uint32_t find_counter(std::string_view name) const;  // locked by caller
  std::uint32_t find_gauge(std::string_view name) const;
  std::uint32_t find_hist(std::string_view name) const;

  mutable std::mutex mutex_;
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Hist> hists_;
};

}  // namespace fmtree::obs
