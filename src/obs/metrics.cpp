#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace fmtree::obs {

namespace {

/// JSON-safe rendering of a double: finite values round-trip, non-finite
/// ones (which JSON cannot represent) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// The catalogue's rows of one kind, sorted by name.
std::vector<const MetricRow*> sorted_rows(MetricKind kind) {
  std::vector<const MetricRow*> rows;
  for (const MetricRow& row : kMetrics)
    if (row.kind == kind) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow* a, const MetricRow* b) { return a->name < b->name; });
  return rows;
}

}  // namespace

void MetricsRegistry::add(CounterMetric counter, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.add(counter, delta);
}

void MetricsRegistry::set(GaugeMetric gauge, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[detail::index(gauge.metric)] = value;
}

void MetricsRegistry::merge(LocalMetrics& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < local.cells_.size(); ++i)
    totals_.cells_[i] += local.cells_[i];
  local.cells_.fill(0);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const MetricRow* row = std::ranges::find(kMetrics, name, &MetricRow::name);
  if (row == std::end(kMetrics) || row->kind != MetricKind::Counter) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_.cells_[detail::kCellOffsets[detail::index(row->metric)]];
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto cells = [&](const MetricRow& row) {
    return totals_.cells_.data() + detail::kCellOffsets[detail::index(row.metric)];
  };

  std::ostringstream os;
  bool first = true;  // no key yet in the open object
  const auto key = [&](const MetricRow& row) -> std::ostream& {
    os << (first ? "\n" : ",\n") << "    \"" << row.name << "\": ";
    first = false;
    return os;
  };
  const auto close = [&](const char* next) {
    os << (first ? "" : "\n  ") << next;
    first = true;
  };
  os << "{\n  \"schema\": \"fmtree.metrics/v1\",\n  \"counters\": {";
  for (const MetricRow* row : sorted_rows(MetricKind::Counter)) key(*row) << *cells(*row);
  close("},\n  \"gauges\": {");
  for (const MetricRow* row : sorted_rows(MetricKind::Gauge))
    if (const auto& value = gauges_[detail::index(row->metric)])
      key(*row) << json_number(*value);
  close("},\n  \"histograms\": {");
  for (const MetricRow* row : sorted_rows(MetricKind::Histogram)) {
    const std::uint64_t* counts = cells(*row);
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < row->bins + 2; ++b) total += counts[b];
    key(*row) << "{\"lo\": " << json_number(row->lo)
              << ", \"hi\": " << json_number(row->hi) << ", \"counts\": [";
    for (std::size_t b = 0; b < row->bins; ++b) os << (b ? ", " : "") << counts[b];
    os << "], \"underflow\": " << counts[row->bins]
       << ", \"overflow\": " << counts[row->bins + 1] << ", \"total\": " << total << "}";
  }
  close("}\n}\n");
  return os.str();
}

}  // namespace fmtree::obs
