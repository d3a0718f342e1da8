// Shared machinery of the end-to-end benchmark: options, timing, in-memory
// spans, sample statistics and the result record every workload fills in.
//
// Spans are recorded by the benchmark around calls into the library's public
// functions; nothing inside src/ is instrumented. With tracing off a Span is
// an inert handle, so the timed (untraced) runs pay one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  unsigned nproc = 1;  ///< hardware threads seen by the process
};

/// splitmix64: derives independent seeds for every input from --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Sorted-copy statistics; quantile() interpolates linearly (type 7).
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
};

/// One span: a call into a library layer, attributed to a workload
/// operation. Names are "<layer>.<call>", e.g. "fmt.parse_fmt".
struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< since the log's epoch
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span on the same thread
  std::uint64_t op = 0;  ///< workload operation id
};

class SpanLog {
public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Span {
  public:
    Span() = default;
    Span(Span&& other) noexcept : log_(other.log_), index_(other.index_) {
      other.log_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    ~Span() { close(); }
    void close();

  private:
    friend class SpanLog;
    Span(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    SpanLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  bool enabled() const noexcept { return enabled_; }
  /// Switches recording on or off; the traced run alternates the two to
  /// measure the tracing overhead on identical operations.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  /// Opens a span parented to the innermost open span (single-threaded use:
  /// the workloads open spans only on their driving thread).
  Span span(const std::string& name);
  /// Sets the operation id stamped on spans opened from now on.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  const std::vector<SpanRecord>& records() const noexcept { return spans_; }
  /// Self time (duration minus the part covered by direct children) summed
  /// per layer, the span name up to its first '.'.
  std::vector<std::pair<std::string, double>> self_seconds_by_layer() const;

private:
  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// What one workload measured: metrics (end-to-end or per-layer, whichever
/// the run mode asks for), extra lines printed for the reader, output checks
/// and operation counts.
struct Result {
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics;     ///< emitted in the final JSON line
  std::vector<Metric> extras;      ///< printed only (per-flow names, context)
  std::vector<std::string> notes;  ///< free-form lines printed before the JSON
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;

  void metric(std::string name, std::string unit, double value, std::size_t samples);
  void extra(std::string name, std::string unit, double value, std::size_t samples);
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a named output check; a failing check marks the result wrong.
  void check(bool ok, const std::string& what);
};

/// Temporary directory inside the checkout, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(std::filesystem::path path);
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();
  const std::filesystem::path& path() const noexcept { return path_; }
  /// A fresh, empty subdirectory.
  std::string fresh(const std::string& stem);

private:
  std::filesystem::path path_;
  std::uint64_t next_ = 0;
};

std::string read_file(const std::string& path);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// The per-run environment record printed with every result.
std::string environment_line(const Options& options, unsigned pool_width);

/// Times `fn` `reps` times and returns the median wall time in seconds.
template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.add(seconds_since(t0));
  }
  return s.median();
}

}  // namespace e2e
