// The telemetry invariants the observability layer guarantees:
//
//  1. Telemetry is observational — running an analysis with metrics, tracing
//     and progress enabled produces KPIs bit-identical to a bare run, at any
//     thread count.
//  2. Work counters derived from per-trajectory quantities are themselves
//     deterministic: same (seed, trajectories) => same totals, independent
//     of the thread count.
//  3. The metrics JSON export is byte-stable for a deterministic run
//     (golden file), so the schema cannot drift silently.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "smc/compare.hpp"
#include "smc/kpi.hpp"

namespace fmtree::smc {
namespace {

const char* kModel = R"(
toplevel System;
System or Wear Electronics;
Wear ebe phases=4 mean=6 threshold=3 repair_cost=800;
Electronics be exp(0.08);
inspection Visual period=0.5 cost=35 targets Wear;
corrective cost=8000 delay=0.02 downtime_rate=50000;
)";

AnalysisSettings base_settings(unsigned threads) {
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 4000;
  s.seed = 20260807;
  s.threads = threads;
  return s;
}

#define EXPECT_BIT_EQ(a, b) \
  EXPECT_EQ(std::memcmp(&(a), &(b), sizeof(a)), 0) << #a " differs bitwise"

void expect_reports_identical(const KpiReport& a, const KpiReport& b) {
  EXPECT_EQ(a.trajectories, b.trajectories);
  EXPECT_BIT_EQ(a.reliability, b.reliability);
  EXPECT_BIT_EQ(a.expected_failures, b.expected_failures);
  EXPECT_BIT_EQ(a.availability, b.availability);
  EXPECT_BIT_EQ(a.total_cost, b.total_cost);
  EXPECT_BIT_EQ(a.npv_cost, b.npv_cost);
  EXPECT_BIT_EQ(a.mean_cost, b.mean_cost);
  ASSERT_EQ(a.failures_per_leaf.size(), b.failures_per_leaf.size());
  for (std::size_t i = 0; i < a.failures_per_leaf.size(); ++i) {
    EXPECT_BIT_EQ(a.failures_per_leaf[i], b.failures_per_leaf[i]);
    EXPECT_BIT_EQ(a.repairs_per_leaf[i], b.repairs_per_leaf[i]);
  }
}

/// The model with yearly instead of half-yearly inspections: a variant to
/// compare against.
fmt::FaultMaintenanceTree sparser(fmt::FaultMaintenanceTree model) {
  model.set_inspection_schedule(0, 1.0);
  return model;
}

TEST(TelemetryDeterminism, EnablingTelemetryChangesNoOutputBit) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const fmt::FaultMaintenanceTree variant = sparser(model);
  for (unsigned threads : {1u, 2u, 4u}) {
    const KpiReport bare = analyze(model, base_settings(threads));
    const PairedComparison bare_cmp =
        compare_models(model, variant, base_settings(threads));

    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    obs::ProgressReporter progress([](const obs::Progress&) {}, 0.0);
    AnalysisSettings instrumented = base_settings(threads);
    instrumented.telemetry = {&metrics, &tracer, &progress};
    const KpiReport observed = analyze(model, instrumented);
    const PairedComparison observed_cmp = compare_models(model, variant, instrumented);

    SCOPED_TRACE(threads);
    expect_reports_identical(bare, observed);
    EXPECT_EQ(bare_cmp.trajectories, observed_cmp.trajectories);
    EXPECT_BIT_EQ(bare_cmp.failures_diff, observed_cmp.failures_diff);
    EXPECT_BIT_EQ(bare_cmp.cost_diff, observed_cmp.cost_diff);
    EXPECT_BIT_EQ(bare_cmp.downtime_diff, observed_cmp.downtime_diff);
    EXPECT_EQ(metrics.counter_value("smc.trajectories"), 4000u + 2 * 4000u);
    EXPECT_GT(tracer.records().size(), 0u);
  }
}

TEST(TelemetryDeterminism, CompareAndQuantilePassCountTheirTrajectories) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  obs::MetricsRegistry compare_metrics;
  obs::Tracer tracer;
  AnalysisSettings s = base_settings(2);
  s.trajectories = 10000;  // pair blocks of 4096, 4096 and 1808
  s.telemetry = {&compare_metrics, &tracer, nullptr};
  const PairedComparison cmp = compare_models(model, sparser(model), s);
  EXPECT_EQ(compare_metrics.counter_value("smc.trajectories"), 2 * cmp.trajectories);
  // One batch per pool run, which is one block of pairs.
  EXPECT_EQ(compare_metrics.counter_value("smc.batches"), 3u);
  bool simulate_span = false;
  for (const obs::SpanRecord& r : tracer.records())
    simulate_span = simulate_span || r.name == "simulate";
  EXPECT_TRUE(simulate_span);

  obs::MetricsRegistry quantile_metrics;
  s = base_settings(2);
  s.telemetry = {&quantile_metrics, nullptr, nullptr};
  const FailureQuantiles q = failure_time_quantiles(model, {0.5}, s);
  EXPECT_EQ(quantile_metrics.counter_value("smc.trajectories"), q.trajectories);
  EXPECT_EQ(q.trajectories, 4000u);
  EXPECT_EQ(quantile_metrics.counter_value("smc.batches"), 1u);
  // `analyze --quantiles` runs the analysis and the quantile pass: 2 batches.
  (void)analyze(model, s);
  EXPECT_EQ(quantile_metrics.counter_value("smc.batches"), 2u);
}

TEST(TelemetryDeterminism, AdaptiveStoppingIsUnaffectedByTelemetry) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s = base_settings(2);
  s.trajectories = 50000;
  s.batch = 1000;
  s.target_relative_error = 0.05;
  const KpiReport bare = analyze(model, s);

  obs::MetricsRegistry metrics;
  obs::ProgressReporter progress([](const obs::Progress&) {}, 0.0);
  AnalysisSettings instrumented = s;
  instrumented.telemetry.metrics = &metrics;
  instrumented.telemetry.progress = &progress;
  const KpiReport observed = analyze(model, instrumented);

  // Telemetry must not perturb the stopping decision: same batch count,
  // same trajectory count, same statistics.
  expect_reports_identical(bare, observed);
  EXPECT_EQ(metrics.counter_value("smc.trajectories"), bare.trajectories);
}

TEST(TelemetryDeterminism, CounterTotalsAreThreadCountInvariant) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  std::string reference;
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    obs::MetricsRegistry metrics;
    AnalysisSettings s = base_settings(threads);
    s.telemetry.metrics = &metrics;
    analyze(model, s);
    const std::string json = metrics.to_json();
    if (reference.empty()) reference = json;
    EXPECT_EQ(json, reference) << "thread count " << threads
                               << " changed the metrics export";
  }
}

TEST(TelemetryDeterminism, MetricsJsonMatchesGoldenFile) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  obs::MetricsRegistry metrics;
  AnalysisSettings s = base_settings(2);
  s.telemetry.metrics = &metrics;
  analyze(model, s);

  const std::string path =
      std::string(FMTREE_SOURCE_DIR) + "/tests/obs/golden_metrics.json";
  std::ifstream file(path);
  ASSERT_TRUE(file) << "missing golden file " << path;
  std::ostringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(metrics.to_json() + "\n", golden.str())
      << "metrics schema or values drifted; if intentional, regenerate "
         "tests/obs/golden_metrics.json (the test prints the new content)";
}

}  // namespace
}  // namespace fmtree::smc
