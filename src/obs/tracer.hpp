// Phase-scoped tracing: RAII spans with wall-clock and per-thread CPU
// timings, collected into a thread-safe Tracer and exportable as JSON
// ("fmtree.trace/v1") or Chrome trace_event format (loadable in
// chrome://tracing and Perfetto).
//
// Spans are coarse — one per analysis phase (parse, build, simulate, solve,
// aggregate, sweep), not per event — so every span operation may take the
// tracer mutex without showing up in any profile. Nesting is tracked per
// thread: a span opened while another span of the same thread is open
// records that span as its parent, giving the phase hierarchy without any
// explicit plumbing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fmtree::obs {

/// One completed (or still open) span. end_ns == 0 while open.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  ///< wall clock, relative to the tracer epoch
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;    ///< thread CPU time consumed inside the span
  std::int32_t parent = -1;    ///< index of the enclosing span; -1 = root
  std::uint32_t thread = 0;    ///< dense per-tracer thread number
};

class Tracer {
public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII handle: closes its span on destruction (or explicitly, earlier).
  class Span {
  public:
    Span() = default;  ///< inert span; close() is a no-op
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        close();
        tracer_ = other.tracer_;
        index_ = other.index_;
        other.tracer_ = nullptr;
      }
      return *this;
    }
    ~Span() { close(); }

    /// Ends the span now. Idempotent.
    void close() noexcept {
      if (tracer_ != nullptr) tracer_->end_span(index_);
      tracer_ = nullptr;
    }

  private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Opens a span on the calling thread, parented to that thread's innermost
  /// open span.
  Span span(std::string_view name);

  /// Snapshot of all spans (open spans have end_ns == 0).
  std::vector<SpanRecord> records() const;

  /// Stable-schema JSON rendering ("fmtree.trace/v1"): spans in creation
  /// order with name/thread/parent/start/wall/cpu milliseconds.
  std::string to_json() const;

  /// Chrome trace_event rendering: a JSON array of complete ("ph":"X")
  /// events with microsecond timestamps, loadable in chrome://tracing.
  std::string to_chrome_trace() const;

private:
  void end_span(std::size_t index) noexcept;
  std::uint32_t thread_number_locked(std::thread::id id);

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> cpu_at_open_;  // parallel to spans_
  std::vector<std::thread::id> threads_;    // dense thread numbering
  std::vector<std::vector<std::size_t>> open_by_thread_;  // per-thread span stack
  std::chrono::steady_clock::time_point epoch_;
};

/// A span when a tracer is configured, an inert handle otherwise — lets
/// instrumented code open spans without null checks.
Tracer::Span maybe_span(Tracer* tracer, std::string_view name);

}  // namespace fmtree::obs
