// The headline acceptance property of the policy DSL: the scripted periodic
// policy (examples/policies/periodic.mpl) produces bitwise-identical KPIs
// to the model's built-in periodic inspection at any thread count — because
// policy evaluation draws no random numbers and repairs flow through the
// kernel's own bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "lang/runtime.hpp"
#include "smc/kpi.hpp"

namespace fmtree::lang {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

fmt::FaultMaintenanceTree ei_joint() {
  return fmt::parse_fmt(
      slurp(std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt"));
}

std::shared_ptr<const CompiledPolicy> example(const char* name) {
  return std::make_shared<const CompiledPolicy>(compile_policy(
      slurp(std::string(FMTREE_SOURCE_DIR) + "/examples/policies/" + name)));
}

void expect_identical(const smc::KpiReport& a, const smc::KpiReport& b) {
  EXPECT_EQ(a.trajectories, b.trajectories);
  EXPECT_EQ(a.reliability.point, b.reliability.point);
  EXPECT_EQ(a.reliability.lo, b.reliability.lo);
  EXPECT_EQ(a.reliability.hi, b.reliability.hi);
  EXPECT_EQ(a.expected_failures.point, b.expected_failures.point);
  EXPECT_EQ(a.availability.point, b.availability.point);
  EXPECT_EQ(a.total_cost.point, b.total_cost.point);
  EXPECT_EQ(a.total_cost.lo, b.total_cost.lo);
  EXPECT_EQ(a.total_cost.hi, b.total_cost.hi);
  EXPECT_EQ(a.cost_per_year.point, b.cost_per_year.point);
  EXPECT_EQ(a.mean_cost.inspection, b.mean_cost.inspection);
  EXPECT_EQ(a.mean_cost.repair, b.mean_cost.repair);
  EXPECT_EQ(a.mean_cost.replacement, b.mean_cost.replacement);
  EXPECT_EQ(a.mean_cost.corrective, b.mean_cost.corrective);
  EXPECT_EQ(a.mean_cost.downtime, b.mean_cost.downtime);
  EXPECT_EQ(a.mean_inspections, b.mean_inspections);
  EXPECT_EQ(a.mean_repairs, b.mean_repairs);
  ASSERT_EQ(a.failures_per_leaf.size(), b.failures_per_leaf.size());
  for (std::size_t i = 0; i < a.failures_per_leaf.size(); ++i) {
    EXPECT_EQ(a.failures_per_leaf[i], b.failures_per_leaf[i]) << "leaf " << i;
    EXPECT_EQ(a.repairs_per_leaf[i], b.repairs_per_leaf[i]) << "leaf " << i;
  }
}

smc::AnalysisSettings settings(unsigned threads) {
  smc::AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 600;
  s.seed = 7;
  s.threads = threads;
  return s;
}

TEST(PolicyEquivalence, ScriptedPeriodicMatchesBuiltInBitwise) {
  const fmt::FaultMaintenanceTree model = ei_joint();
  const auto periodic = example("periodic.mpl");
  for (const unsigned threads : {1u, 3u, 4u}) {
    smc::AnalysisSettings builtin_settings = settings(threads);
    const smc::KpiReport builtin = smc::analyze(model, builtin_settings);

    smc::AnalysisSettings scripted_settings = builtin_settings;
    scripted_settings.policy = periodic;
    const smc::KpiReport scripted = smc::analyze(model, scripted_settings);

    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_identical(builtin, scripted);
  }
}

TEST(PolicyEquivalence, ScriptedRunsAreThreadCountInvariant) {
  // Determinism is inherited: a scripted run is bit-identical to itself at
  // any thread count.
  const fmt::FaultMaintenanceTree model = ei_joint();
  const auto policy = example("seasonal.mpl");
  smc::AnalysisSettings a = settings(1);
  a.policy = policy;
  smc::AnalysisSettings b = settings(4);
  b.policy = policy;
  expect_identical(smc::analyze(model, a), smc::analyze(model, b));
}

TEST(PolicyEquivalence, EveryExampleScriptExecutes) {
  const fmt::FaultMaintenanceTree model = ei_joint();
  for (const char* name :
       {"periodic.mpl", "condition_based.mpl", "opportunistic.mpl", "seasonal.mpl"}) {
    smc::AnalysisSettings s = settings(0);
    s.trajectories = 200;
    s.policy = example(name);
    const smc::KpiReport report = smc::analyze(model, s);
    SCOPED_TRACE(name);
    EXPECT_EQ(report.trajectories, 200u);
    EXPECT_GT(report.total_cost.point, 0.0);
    EXPECT_TRUE(std::isfinite(report.cost_per_year.point));
  }
}

TEST(PolicyEquivalence, PolicyChangesTheResult) {
  // Sanity: the scripted condition-based policy is NOT the built-in one.
  const fmt::FaultMaintenanceTree model = ei_joint();
  smc::AnalysisSettings plain = settings(0);
  smc::AnalysisSettings scripted = plain;
  scripted.policy = example("condition_based.mpl");
  EXPECT_NE(smc::analyze(model, plain).total_cost.point,
            smc::analyze(model, scripted).total_cost.point);
}

}  // namespace
}  // namespace fmtree::lang
