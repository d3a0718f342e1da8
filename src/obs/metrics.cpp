#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace fmtree::obs {

namespace {

constexpr std::uint32_t kNotFound = std::numeric_limits<std::uint32_t>::max();

/// JSON-safe rendering of a double: finite values round-trip, non-finite
/// ones (which JSON cannot represent) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::uint32_t MetricsRegistry::find_counter(std::string_view name) const {
  for (std::uint32_t i = 0; i < counters_.size(); ++i)
    if (counters_[i].name == name) return i;
  return kNotFound;
}

std::uint32_t MetricsRegistry::find_gauge(std::string_view name) const {
  for (std::uint32_t i = 0; i < gauges_.size(); ++i)
    if (gauges_[i].name == name) return i;
  return kNotFound;
}

std::uint32_t MetricsRegistry::find_hist(std::string_view name) const {
  for (std::uint32_t i = 0; i < hists_.size(); ++i)
    if (hists_[i].name == name) return i;
  return kNotFound;
}

CounterId MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_counter(name);
  if (i == kNotFound) {
    i = static_cast<std::uint32_t>(counters_.size());
    counters_.push_back(Counter{std::string(name), 0});
  }
  return CounterId{i};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_gauge(name);
  if (i == kNotFound) {
    i = static_cast<std::uint32_t>(gauges_.size());
    gauges_.push_back(Gauge{std::string(name), 0.0, false});
  }
  return GaugeId{i};
}

HistogramId MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                       std::size_t bins) {
  if (!(hi > lo) || bins == 0 || !std::isfinite(lo) || !std::isfinite(hi))
    throw DomainError("histogram needs finite lo < hi and at least one bin");
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint32_t i = find_hist(name);
  if (i != kNotFound) {
    const Hist& h = hists_[i];
    if (h.lo != lo || h.hi != hi || h.counts.size() != bins)
      throw DomainError("histogram '" + std::string(name) +
                        "' re-registered with a different shape");
    return HistogramId{i};
  }
  i = static_cast<std::uint32_t>(hists_.size());
  Hist h;
  h.name = std::string(name);
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  hists_.push_back(std::move(h));
  return HistogramId{i};
}

void MetricsRegistry::add(CounterId c, std::uint64_t delta) {
  if (!c.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (c.index < counters_.size()) counters_[c.index].value += delta;
}

void MetricsRegistry::set(GaugeId g, double value) {
  if (!g.valid()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (g.index < gauges_.size()) {
    gauges_[g.index].value = value;
    gauges_[g.index].set = true;
  }
}

LocalMetrics MetricsRegistry::local() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LocalMetrics out;
  out.counters_.assign(counters_.size(), 0);
  out.hists_.reserve(hists_.size());
  for (const Hist& h : hists_) {
    LocalMetrics::LocalHist lh;
    lh.lo = h.lo;
    lh.width = (h.hi - h.lo) / static_cast<double>(h.counts.size());
    lh.counts.assign(h.counts.size(), 0);
    out.hists_.push_back(std::move(lh));
  }
  return out;
}

void MetricsRegistry::merge(LocalMetrics& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t nc = std::min(local.counters_.size(), counters_.size());
  for (std::size_t i = 0; i < nc; ++i) counters_[i].value += local.counters_[i];
  std::fill(local.counters_.begin(), local.counters_.end(), 0);
  const std::size_t nh = std::min(local.hists_.size(), hists_.size());
  for (std::size_t i = 0; i < nh; ++i) {
    LocalMetrics::LocalHist& lh = local.hists_[i];
    Hist& h = hists_[i];
    const std::size_t bins = std::min(lh.counts.size(), h.counts.size());
    for (std::size_t b = 0; b < bins; ++b) h.counts[b] += lh.counts[b];
    h.underflow += lh.underflow;
    h.overflow += lh.overflow;
    std::fill(lh.counts.begin(), lh.counts.end(), 0);
    lh.underflow = 0;
    lh.overflow = 0;
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t i = find_counter(name);
  return i == kNotFound ? 0 : counters_[i].value;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Sorted index views keep the output stable regardless of registration order.
  auto sorted_indices = [](const auto& items) {
    std::vector<std::size_t> idx(items.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return items[a].name < items[b].name;
    });
    return idx;
  };

  std::ostringstream os;
  os << "{\n  \"schema\": \"fmtree.metrics/v1\",\n  \"counters\": {";
  bool first = true;
  for (std::size_t i : sorted_indices(counters_)) {
    os << (first ? "\n" : ",\n") << "    \"" << counters_[i].name
       << "\": " << counters_[i].value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (std::size_t i : sorted_indices(gauges_)) {
    if (!gauges_[i].set) continue;
    os << (first ? "\n" : ",\n") << "    \"" << gauges_[i].name
       << "\": " << json_number(gauges_[i].value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (std::size_t i : sorted_indices(hists_)) {
    const Hist& h = hists_[i];
    std::uint64_t total = h.underflow + h.overflow;
    for (std::uint64_t c : h.counts) total += c;
    os << (first ? "\n" : ",\n") << "    \"" << h.name << "\": {\"lo\": "
       << json_number(h.lo) << ", \"hi\": " << json_number(h.hi) << ", \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      os << (b ? ", " : "") << h.counts[b];
    os << "], \"underflow\": " << h.underflow << ", \"overflow\": " << h.overflow
       << ", \"total\": " << total << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace fmtree::obs
