// Unit tests of the observability primitives: metrics registry + per-thread
// accumulators, phase tracer, throttled progress reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/json.hpp"

namespace fmtree::obs {
namespace {

// Gauges and histograms are read back through the JSON export.
json::Value exported(const MetricsRegistry& reg, std::string_view family,
                     std::string_view name) {
  const json::Value doc = json::parse(reg.to_json());
  const json::Value* value = doc.find(family)->find(name);
  return value != nullptr ? *value : json::Value{};
}

/// A field of the exported smc.events_per_trajectory histogram.
json::Value histogram_field(const MetricsRegistry& reg, std::string_view field) {
  const json::Value histogram = exported(reg, "histograms", "smc.events_per_trajectory");
  const json::Value* value = histogram.find(field);
  return value != nullptr ? *value : json::Value{};
}

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

TEST(Metrics, DirectMutationAndReadBack) {
  MetricsRegistry reg;
  reg.add(Metric::BatchJobs);
  reg.add(Metric::BatchJobs, 41);
  EXPECT_EQ(reg.counter_value("batch.jobs"), 42u);
  EXPECT_EQ(reg.counter_value("unknown"), 0u);
  EXPECT_EQ(reg.counter_value("solver.residual"), 0u);  // a gauge, not a counter

  reg.set(Metric::SolverResidual, 2.5);
  EXPECT_DOUBLE_EQ(exported(reg, "gauges", "solver.residual").as_double(), 2.5);

  // 64 bins of width 16 over [0, 1024), then underflow and overflow.
  LocalMetrics local;
  local.observe(Metric::SmcEventsPerTrajectory, -1.0);
  local.observe(Metric::SmcEventsPerTrajectory, 3.0);
  local.observe(Metric::SmcEventsPerTrajectory, 16.0);
  local.observe(Metric::SmcEventsPerTrajectory, 1023.5);
  local.observe(Metric::SmcEventsPerTrajectory, 1024.0);
  reg.merge(local);
  EXPECT_EQ(histogram_field(reg, "underflow").as_u64(), 1u);
  EXPECT_EQ(histogram_field(reg, "overflow").as_u64(), 1u);
  EXPECT_EQ(histogram_field(reg, "total").as_u64(), 5u);
  const std::vector<json::Value> counts = histogram_field(reg, "counts").items;
  ASSERT_EQ(counts.size(), 64u);
  EXPECT_EQ(counts[0].as_u64(), 1u);
  EXPECT_EQ(counts[1].as_u64(), 1u);
  EXPECT_EQ(counts[63].as_u64(), 1u);
  // The histogram's cells border no counter's.
  EXPECT_EQ(reg.counter_value("smc.batches"), 0u);
  EXPECT_EQ(reg.counter_value("solver.iterations"), 0u);
}

TEST(Metrics, LocalAccumulatorsMergeAndReset) {
  MetricsRegistry reg;
  LocalMetrics a;
  LocalMetrics b;
  a.add(Metric::SmcEvents, 10);
  b.add(Metric::SmcEvents, 5);
  a.observe(Metric::SmcEventsPerTrajectory, 1.0);
  b.observe(Metric::SmcEventsPerTrajectory, 2.0);
  reg.merge(a);
  reg.merge(b);
  EXPECT_EQ(reg.counter_value("smc.events"), 15u);
  EXPECT_EQ(histogram_field(reg, "total").as_u64(), 2u);

  // merge() resets the local state, so folding again adds nothing.
  reg.merge(a);
  EXPECT_EQ(reg.counter_value("smc.events"), 15u);
  EXPECT_EQ(histogram_field(reg, "total").as_u64(), 2u);
}

TEST(Metrics, ConcurrentWorkersMergeExactly) {
  MetricsRegistry reg;
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      LocalMetrics local;
      for (int i = 0; i < kPerThread; ++i) local.add(Metric::SmcTrajectories);
      reg.merge(local);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter_value("smc.trajectories"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, JsonFollowsSchemaWithSortedKeys) {
  MetricsRegistry reg;
  reg.add(Metric::SweepRetries, 1);
  reg.add(Metric::BatchCacheHits, 2);
  reg.set(Metric::SolverStates, 1.5);  // solver.residual stays unset

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"fmtree.metrics/v1\""), std::string::npos);
  EXPECT_LT(json.find("\"batch.cache.hits\""), json.find("\"sweep.retries\""));  // sorted
  EXPECT_NE(json.find("\"underflow\""), std::string::npos);

  // Every counter and histogram of the catalogue, and each gauge once set.
  const json::Value doc = json::parse(json);
  for (const MetricRow& row : kMetrics) {
    SCOPED_TRACE(row.name);
    const json::Value* counter = doc.find("counters")->find(row.name);
    const json::Value* gauge = doc.find("gauges")->find(row.name);
    const json::Value* histogram = doc.find("histograms")->find(row.name);
    EXPECT_EQ(counter != nullptr, row.kind == MetricKind::Counter);
    EXPECT_EQ(gauge != nullptr, row.metric == Metric::SolverStates);
    EXPECT_EQ(histogram != nullptr, row.kind == MetricKind::Histogram);
  }
  EXPECT_EQ(doc.find("counters")->find("sweep.retries")->as_u64(), 1u);
  EXPECT_EQ(doc.find("counters")->find("fleet.joints")->as_u64(), 0u);
}

// DESIGN.md's metric table ("| metric | kind | meaning |", one metric per
// row) names exactly the catalogue: every (name, kind) pair once.
TEST(Metrics, DesignTableMatchesTheCatalogue) {
  const std::string path = std::string(FMTREE_SOURCE_DIR) + "/DESIGN.md";
  std::ifstream file(path);
  ASSERT_TRUE(file) << "missing " << path;
  std::vector<std::pair<std::string, std::string>> documented;
  bool in_table = false;
  for (std::string line; std::getline(file, line);) {
    if (line.rfind("| metric | kind | meaning |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|", 0) != 0) break;
    if (line.rfind("|---", 0) == 0) continue;
    const std::size_t name_at = line.find('`');
    const std::size_t name_end = line.find('`', name_at + 1);
    const std::size_t kind_at = line.find('|', name_end);
    const std::size_t kind_end = line.find('|', kind_at + 1);
    ASSERT_NE(kind_end, std::string::npos) << "malformed row: " << line;
    std::string kind = line.substr(kind_at + 1, kind_end - kind_at - 1);
    kind.erase(0, kind.find_first_not_of(' '));
    kind.erase(kind.find_last_not_of(' ') + 1);
    documented.emplace_back(line.substr(name_at + 1, name_end - name_at - 1), kind);
  }
  std::vector<std::pair<std::string, std::string>> catalogue;
  for (const MetricRow& row : kMetrics)
    catalogue.emplace_back(std::string(row.name), std::string(kind_name(row.kind)));
  std::sort(documented.begin(), documented.end());
  std::sort(catalogue.begin(), catalogue.end());

  std::vector<std::pair<std::string, std::string>> missing, extra;
  std::set_difference(catalogue.begin(), catalogue.end(), documented.begin(),
                      documented.end(), std::back_inserter(missing));
  std::set_difference(documented.begin(), documented.end(), catalogue.begin(),
                      catalogue.end(), std::back_inserter(extra));
  for (const auto& [name, kind] : missing)
    ADD_FAILURE() << "DESIGN.md lacks the row of " << kind << " " << name;
  for (const auto& [name, kind] : extra)
    ADD_FAILURE() << "DESIGN.md names " << kind << " " << name << ", not in kMetrics";
  EXPECT_EQ(documented, catalogue);  // and names each pair once
}

TEST(Tracer, SpansNestPerThread) {
  Tracer tracer;
  {
    auto outer = tracer.span("simulate");
    auto inner = tracer.span("batch");
    inner.close();
    inner.close();  // idempotent
  }
  const std::vector<SpanRecord> spans = tracer.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "simulate");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "batch");
  EXPECT_EQ(spans[1].parent, 0);  // nested under "simulate"
  for (const SpanRecord& s : spans) {
    EXPECT_GT(s.end_ns, 0u);
    EXPECT_GE(s.end_ns, s.start_ns);
  }
}

TEST(Tracer, ThreadsGetDenseNumbersAndRootSpans) {
  Tracer tracer;
  auto main_span = tracer.span("main");
  std::thread worker([&] { tracer.span("worker"); });
  worker.join();
  main_span.close();
  const auto spans = tracer.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
  // The worker's span must not be parented to another thread's open span.
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(Tracer, ExportsBothSchemas) {
  Tracer tracer;
  tracer.span("parse").close();
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"schema\": \"fmtree.trace/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_ms\""), std::string::npos);

  const std::string chrome = tracer.to_chrome_trace();
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"parse\""), std::string::npos);
}

TEST(Tracer, ExportsEscapeSpanNames) {
  // A job span carries its label verbatim, and a policy name may hold any
  // character a DSL string literal can.
  const std::string name = "job:C:\\periodic \"x\"";
  Tracer tracer;
  tracer.span(name).close();
  const json::Value doc = json::parse(tracer.to_json());
  EXPECT_EQ(doc.find("spans")->items.at(0).find("name")->text, name);
  const json::Value chrome = json::parse(tracer.to_chrome_trace());
  EXPECT_EQ(chrome.items.at(0).find("name")->text, name);
}

TEST(Tracer, MaybeSpanToleratesNull) {
  auto span = maybe_span(nullptr, "anything");
  span.close();  // no tracer: nothing to do, nothing to crash
  Tracer tracer;
  maybe_span(&tracer, "real").close();
  EXPECT_EQ(tracer.records().size(), 1u);
}

TEST(Progress, DeliversAndComputesRate) {
  std::vector<Progress> seen;
  ProgressReporter reporter([&](const Progress& p) { seen.push_back(p); },
                            /*min_interval_seconds=*/0.0);
  Progress p;
  p.phase = "simulate";
  p.done = 100;
  p.total = 300;
  reporter.update(p);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  p.done = 200;
  reporter.update(p);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(reporter.deliveries(), 2u);
  EXPECT_EQ(seen[0].rate, 0.0);  // no previous sample yet
  EXPECT_GT(seen[1].rate, 0.0);
  EXPECT_GT(seen[1].eta_seconds, 0.0);
  EXPECT_EQ(seen[1].phase, "simulate");
}

TEST(Progress, ThrottleAdmitsOneDeliveryPerInterval) {
  std::atomic<int> calls{0};
  ProgressReporter reporter([&](const Progress&) { ++calls; },
                            /*min_interval_seconds=*/3600.0);
  Progress p;
  reporter.update(p);  // first call is due immediately
  for (int i = 0; i < 100; ++i) reporter.update(p);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_FALSE(reporter.due());
}

}  // namespace
}  // namespace fmtree::obs
