#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace e2e {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Samples::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void SpanLog::Span::close() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_s = seconds_since(log_->epoch_);
  if (!log_->open_.empty() && log_->open_.back() == index_) log_->open_.pop_back();
  log_ = nullptr;
}

SpanLog::Span SpanLog::span(const std::string& name) {
  if (!enabled_) return {};
  SpanRecord rec;
  rec.name = name;
  rec.start_s = seconds_since(epoch_);
  rec.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  rec.op = op_;
  spans_.push_back(std::move(rec));
  open_.push_back(spans_.size() - 1);
  return Span(this, spans_.size() - 1);
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += spans_[i].end_s - spans_[i].start_s;
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  return {by_layer.begin(), by_layer.end()};
}

void Result::metric(std::string name, std::string unit, double value, std::size_t samples) {
  metrics.push_back({std::move(name), std::move(unit), value, samples});
}

void Result::extra(std::string name, std::string unit, double value, std::size_t samples) {
  extras.push_back({std::move(name), std::move(unit), value, samples});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

ScratchDir::ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::fresh(const std::string& stem) {
  const std::filesystem::path dir = path_ / (stem + "-" + std::to_string(next_++));
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string environment_line(const Options& options, unsigned pool_width) {
  std::ostringstream out;
  out << "env: workload=" << options.workload << " seed=" << options.seed
      << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
      << " nproc=" << options.nproc << " pool_width=" << pool_width
      << " compiler=\"" << FMTREE_E2E_COMPILER << "\" build_type=" << FMTREE_E2E_BUILD_TYPE
      << " commit=" << options.commit;
  return out.str();
}

}  // namespace e2e
