#include "obs/progress.hpp"

#include <utility>

namespace fmtree::obs {

ProgressReporter::ProgressReporter(ProgressFn fn, double min_interval_seconds)
    : fn_(std::move(fn)),
      interval_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(min_interval_seconds > 0 ? min_interval_seconds
                                                                 : 0.0))),
      next_due_(Clock::now().time_since_epoch().count()) {}

void ProgressReporter::update(Progress p) {
  const auto now = Clock::now();
  auto due_at = next_due_.load(std::memory_order_acquire);
  if (now.time_since_epoch().count() < due_at) return;
  const auto next = (now + interval_).time_since_epoch().count();
  // One winner per interval: losers observe the refreshed deadline and leave.
  if (!next_due_.compare_exchange_strong(due_at, next, std::memory_order_acq_rel))
    return;
  std::lock_guard<std::mutex> lock(mutex_);
  deliver(p, now);
}

void ProgressReporter::deliver(Progress& p, Clock::time_point now) {
  if (have_last_ && p.done > last_done_) {
    const double dt = std::chrono::duration<double>(now - last_time_).count();
    if (dt > 0) p.rate = static_cast<double>(p.done - last_done_) / dt;
  }
  if (p.rate > 0 && p.total > p.done)
    p.eta_seconds = static_cast<double>(p.total - p.done) / p.rate;
  last_time_ = now;
  last_done_ = p.done;
  have_last_ = true;
  ++deliveries_;
  if (fn_) fn_(p);
}

}  // namespace fmtree::obs
