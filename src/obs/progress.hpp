// Throttled live-progress reporting for long-running analyses.
//
// Producers (the trajectory pool, the adaptive KPI driver and the CTMC
// solvers) describe where they are with a Progress
// snapshot; the ProgressReporter rate-limits delivery to the user callback
// so hot loops can offer progress on every iteration without flooding
// anything. The cheap pre-check is `due()` — one steady_clock read and one
// relaxed atomic load — so a disabled or recently-fired reporter costs
// nanoseconds per poll. At most one thread wins the CAS per interval; the
// callback itself runs under a mutex and so never needs to be thread-safe.
//
// Progress is observational: reporters never feed back into the analysis,
// so enabling progress changes no analysis output bit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>

namespace fmtree::obs {

/// One progress snapshot. Producers fill what they know; negative doubles
/// and zero totals mean "not applicable / unknown".
struct Progress {
  std::string_view phase;        ///< "simulate", "solve", "sweep"
  std::uint64_t done = 0;        ///< units completed (trajectories, candidates)
  std::uint64_t total = 0;       ///< scheduled units; 0 = unknown / open-ended
  double rate = 0.0;             ///< units per second; filled in by the reporter
  double eta_seconds = -1.0;     ///< estimated seconds to completion; <0 unknown
  double ci_half_width = -1.0;   ///< current relative CI half-width (SMC); <0 n/a
  double ci_target = -1.0;       ///< requested relative CI half-width; <0 n/a
  double residual = -1.0;        ///< solver convergence residual; <0 n/a
};

using ProgressFn = std::function<void(const Progress&)>;

class ProgressReporter {
public:
  /// Delivers at most one snapshot per `min_interval_seconds`. The callback
  /// runs on whichever worker thread won the interval, serialized by an
  /// internal mutex.
  explicit ProgressReporter(ProgressFn fn, double min_interval_seconds = 0.25);

  /// True once the throttle interval has elapsed — the cheap hot-loop guard.
  bool due() const noexcept {
    return Clock::now().time_since_epoch().count() >=
           next_due_.load(std::memory_order_relaxed);
  }

  /// Delivers `p` if due (first caller past the deadline wins; the rest
  /// return immediately). Computes rate and eta from successive calls.
  void update(Progress p);

  std::uint64_t deliveries() const noexcept {
    return deliveries_.load(std::memory_order_relaxed);
  }

private:
  using Clock = std::chrono::steady_clock;

  void deliver(Progress& p, Clock::time_point now);

  ProgressFn fn_;
  Clock::duration interval_;
  std::atomic<Clock::rep> next_due_;
  std::atomic<std::uint64_t> deliveries_{0};

  std::mutex mutex_;  // serializes fn_ and the rate state below
  Clock::time_point last_time_;
  std::uint64_t last_done_ = 0;
  bool have_last_ = false;
};

}  // namespace fmtree::obs
