// Cross-thread determinism regression tests. The contract (smc/runner.hpp):
// trajectory i always runs on CounterStream(seed, start + i), so every
// aggregate — analyze(), the failure-log-driven curves, adaptive batching —
// is a pure function of (model, settings minus threads). These tests pin
// that down with exact (bitwise) comparisons on the shipped EI-joint model.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fmt/parser.hpp"
#include "smc/kpi.hpp"

namespace fmtree::smc {
namespace {

std::string read_model_file(const std::string& name) {
  for (const std::string& prefix : {std::string("models/"), std::string("../models/"),
                                    std::string(FMTREE_SOURCE_DIR "/models/")}) {
    std::ifstream f(prefix + name);
    if (f) {
      std::ostringstream text;
      text << f.rdbuf();
      return text.str();
    }
  }
  ADD_FAILURE() << "cannot locate models/" << name;
  return {};
}

void expect_same_interval(const ConfidenceInterval& a, const ConfidenceInterval& b,
                          const char* what) {
  EXPECT_EQ(a.point, b.point) << what;
  EXPECT_EQ(a.lo, b.lo) << what;
  EXPECT_EQ(a.hi, b.hi) << what;
  EXPECT_EQ(a.confidence, b.confidence) << what;
}

void expect_same_report(const KpiReport& a, const KpiReport& b) {
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.trajectories, b.trajectories);
  expect_same_interval(a.reliability, b.reliability, "reliability");
  expect_same_interval(a.expected_failures, b.expected_failures, "expected_failures");
  expect_same_interval(a.failures_per_year, b.failures_per_year, "failures_per_year");
  expect_same_interval(a.availability, b.availability, "availability");
  expect_same_interval(a.total_cost, b.total_cost, "total_cost");
  expect_same_interval(a.cost_per_year, b.cost_per_year, "cost_per_year");
  expect_same_interval(a.npv_cost, b.npv_cost, "npv_cost");
  EXPECT_EQ(a.mean_cost.inspection, b.mean_cost.inspection);
  EXPECT_EQ(a.mean_cost.repair, b.mean_cost.repair);
  EXPECT_EQ(a.mean_cost.replacement, b.mean_cost.replacement);
  EXPECT_EQ(a.mean_cost.corrective, b.mean_cost.corrective);
  EXPECT_EQ(a.mean_cost.downtime, b.mean_cost.downtime);
  EXPECT_EQ(a.mean_inspections, b.mean_inspections);
  EXPECT_EQ(a.mean_repairs, b.mean_repairs);
  EXPECT_EQ(a.mean_replacements, b.mean_replacements);
  EXPECT_EQ(a.failures_per_leaf, b.failures_per_leaf);
  EXPECT_EQ(a.repairs_per_leaf, b.repairs_per_leaf);
}

AnalysisSettings base_settings(unsigned threads) {
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 4000;
  s.seed = 20160628;
  s.threads = threads;
  s.discount_rate = 0.04;
  return s;
}

TEST(Determinism, AnalyzeIsBitIdenticalAcrossThreadCounts) {
  const fmt::FaultMaintenanceTree model =
      fmt::parse_fmt(read_model_file("ei_joint.fmt"));
  const KpiReport one = analyze(model, base_settings(1));
  const KpiReport four = analyze(model, base_settings(4));
  expect_same_report(one, four);
}

TEST(Determinism, AnalyzeWithAdaptiveStoppingIsThreadCountInvariant) {
  // Adaptive batching decides when to stop from aggregated batch results;
  // since every batch is thread-count-invariant, so is the stopping point.
  const fmt::FaultMaintenanceTree model =
      fmt::parse_fmt(read_model_file("ei_joint.fmt"));
  AnalysisSettings s1 = base_settings(1);
  s1.trajectories = 20000;  // budget cap
  s1.batch = 1024;
  s1.target_relative_error = 0.2;
  AnalysisSettings s4 = s1;
  s4.threads = 4;
  const KpiReport one = analyze(model, s1);
  const KpiReport four = analyze(model, s4);
  EXPECT_LT(one.trajectories, 20000u);  // the target stopped it early
  expect_same_report(one, four);
}

TEST(Determinism, ReliabilityCurveIsThreadCountInvariant) {
  const fmt::FaultMaintenanceTree model =
      fmt::parse_fmt(read_model_file("ei_joint.fmt"));
  const std::vector<double> grid = linspace_grid(10.0, 20);
  const auto one = reliability_curve(model, grid, base_settings(1));
  const auto four = reliability_curve(model, grid, base_settings(4));
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].t, four[i].t) << "grid point " << i;
    expect_same_interval(one[i].value, four[i].value, "curve value");
  }
}

TEST(Determinism, CurveHonorsTrajectoryBudgetAndBatching) {
  // The curve shares collect() with analyze(): the trajectory budget and
  // batch size must be respected rather than hard-coded.
  const fmt::FaultMaintenanceTree model =
      fmt::parse_fmt(read_model_file("ei_joint.fmt"));
  AnalysisSettings s = base_settings(2);
  s.trajectories = 1500;
  s.batch = 256;
  const std::vector<double> grid = linspace_grid(10.0, 10);
  const auto curve = reliability_curve(model, grid, s);
  ASSERT_EQ(curve.size(), grid.size());
  // At t = 0 every trajectory still works; at the horizon the estimate
  // matches analyze() on the same settings exactly (same trajectories).
  EXPECT_EQ(curve.front().value.point, 1.0);
  const KpiReport report = analyze(model, s);
  EXPECT_EQ(curve.back().value.point, report.reliability.point);
}

}  // namespace
}  // namespace fmtree::smc
