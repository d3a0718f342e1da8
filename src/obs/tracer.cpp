#include "obs/tracer.hpp"

#include <algorithm>
#include <sstream>

#include "util/json.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <ctime>
#define FMTREE_HAS_THREAD_CPUTIME 1
#endif

namespace fmtree::obs {

namespace {

/// CPU time consumed by the calling thread, in nanoseconds; 0 where the
/// platform offers no per-thread clock (timings then report cpu_ms = 0).
std::uint64_t thread_cpu_ns() noexcept {
#ifdef FMTREE_HAS_THREAD_CPUTIME
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
#endif
  return 0;
}

std::string json_ms(std::uint64_t ns) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << static_cast<double>(ns) / 1e6;
  return os.str();
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint32_t Tracer::thread_number_locked(std::thread::id id) {
  for (std::uint32_t i = 0; i < threads_.size(); ++i)
    if (threads_[i] == id) return i;
  threads_.push_back(id);
  open_by_thread_.emplace_back();
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

Tracer::Span Tracer::span(std::string_view name) {
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t cpu = thread_cpu_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t thread = thread_number_locked(std::this_thread::get_id());
  SpanRecord rec;
  rec.name = std::string(name);
  rec.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count());
  rec.thread = thread;
  std::vector<std::size_t>& stack = open_by_thread_[thread];
  rec.parent = stack.empty() ? -1 : static_cast<std::int32_t>(stack.back());
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(rec));
  cpu_at_open_.push_back(cpu);
  stack.push_back(index);
  return Span(this, index);
}

void Tracer::end_span(std::size_t index) noexcept {
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t cpu = thread_cpu_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= spans_.size() || spans_[index].end_ns != 0) return;
  SpanRecord& rec = spans_[index];
  rec.end_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count());
  if (rec.end_ns <= rec.start_ns) rec.end_ns = rec.start_ns + 1;  // keep dur > 0
  if (cpu >= cpu_at_open_[index]) rec.cpu_ns = cpu - cpu_at_open_[index];
  // Pop from its thread's open stack (normally the top; tolerate misnesting).
  std::vector<std::size_t>& stack = open_by_thread_[rec.thread];
  const auto it = std::find(stack.rbegin(), stack.rend(), index);
  if (it != stack.rend()) stack.erase(std::next(it).base());
}

std::vector<SpanRecord> Tracer::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"schema\": \"fmtree.trace/v1\",\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::uint64_t wall = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    os << (i ? ",\n" : "\n") << "    {\"name\": \"" << json::escape(s.name)
       << "\", \"thread\": " << s.thread << ", \"parent\": " << s.parent
       << ", \"start_ms\": " << json_ms(s.start_ns) << ", \"wall_ms\": " << json_ms(wall)
       << ", \"cpu_ms\": " << json_ms(s.cpu_ns) << "}";
  }
  os << (spans_.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string Tracer::to_chrome_trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::uint64_t wall = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    os << (i ? ",\n " : "\n ") << "{\"name\": \"" << json::escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread << ", \"ts\": "
       << static_cast<double>(s.start_ns) / 1e3 << ", \"dur\": "
       << static_cast<double>(wall) / 1e3 << ", \"args\": {\"cpu_ms\": "
       << static_cast<double>(s.cpu_ns) / 1e6 << "}}";
  }
  os << (spans_.empty() ? "]" : "\n]") << "\n";
  return os.str();
}

Tracer::Span maybe_span(Tracer* tracer, std::string_view name) {
  return tracer != nullptr ? tracer->span(name) : Tracer::Span();
}

}  // namespace fmtree::obs
