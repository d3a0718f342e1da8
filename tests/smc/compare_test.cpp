#include "smc/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

using fmt::FaultMaintenanceTree;

AnalysisSettings quick(std::uint64_t n = 4000, double horizon = 20.0) {
  AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = n;
  s.seed = 31;
  return s;
}

TEST(CompareModels, IdenticalModelsGiveZeroDifference) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const auto model2 = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                              eijoint::current_policy());
  const PairedComparison cmp = compare_models(model, model2, quick(500));
  EXPECT_DOUBLE_EQ(cmp.failures_diff.point, 0.0);
  EXPECT_DOUBLE_EQ(cmp.cost_diff.point, 0.0);
  EXPECT_DOUBLE_EQ(cmp.failures_diff.half_width(), 0.0);
  EXPECT_FALSE(cmp.failures_significantly_different());
}

TEST(CompareModels, DetectsThatInspectionsReduceFailures) {
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const FaultMaintenanceTree sparse =
      eijoint::build_ei_joint(params, eijoint::inspections_per_year(1));
  const FaultMaintenanceTree current =
      eijoint::build_ei_joint(params, eijoint::current_policy());
  const PairedComparison cmp = compare_models(sparse, current, quick());
  EXPECT_GT(cmp.failures_diff.lo, 0.0);  // sparse has strictly more failures
  EXPECT_TRUE(cmp.failures_significantly_different());
}

TEST(CompareModels, PairedTighterThanUnpairedOnCloseVariants) {
  // 3x vs 4x inspections are so close that independent runs at this budget
  // cannot rank them; the paired estimator's CI must be narrower than the
  // difference of two independent CIs combined.
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const FaultMaintenanceTree a =
      eijoint::build_ei_joint(params, eijoint::inspections_per_year(3));
  const FaultMaintenanceTree b =
      eijoint::build_ei_joint(params, eijoint::current_policy());
  const AnalysisSettings s = quick(6000);
  const PairedComparison paired = compare_models(a, b, s);

  AnalysisSettings sa = s;
  const KpiReport ka = analyze(a, sa);
  sa.seed = s.seed + 1;  // independent second run
  const KpiReport kb = analyze(b, sa);
  const double unpaired_hw = std::sqrt(
      std::pow(ka.expected_failures.half_width(), 2) +
      std::pow(kb.expected_failures.half_width(), 2));
  EXPECT_LT(paired.failures_diff.half_width(), unpaired_hw);
}

TEST(CompareModels, Validation) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  AnalysisSettings s = quick();
  s.horizon = 0;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
  s.horizon = 1;
  s.trajectories = 0;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
}

TEST(FailureTimeQuantiles, MatchExponentialClosedForm) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(0.5)));
  AnalysisSettings s = quick(40000, 100.0);
  const FailureQuantiles q = failure_time_quantiles(m, {0.25, 0.5, 0.9}, s);
  ASSERT_EQ(q.values.size(), 3u);
  EXPECT_EQ(q.trajectories, 40000u);
  EXPECT_EQ(q.stop_reason, StopReason::None);
  EXPECT_NEAR(q.values[0], -std::log(0.75) / 0.5, 0.05);
  EXPECT_NEAR(q.values[1], -std::log(0.5) / 0.5, 0.06);
  EXPECT_NEAR(q.values[2], -std::log(0.1) / 0.5, 0.25);
}

TEST(FailureTimeQuantiles, CensoredTailIsInfinite) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(0.01)));  // mean 100
  AnalysisSettings s = quick(2000, 5.0);  // ~95% survive the horizon
  const FailureQuantiles q = failure_time_quantiles(m, {0.5, 0.99}, s);
  EXPECT_TRUE(std::isinf(q.values[0]));
  EXPECT_TRUE(std::isinf(q.values[1]));
}

TEST(FailureTimeQuantiles, MonotoneInProbability) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::corrective_only());
  const FailureQuantiles q =
      failure_time_quantiles(model, {0.1, 0.3, 0.5, 0.7, 0.9}, quick(10000, 50.0));
  for (std::size_t i = 1; i < q.values.size(); ++i)
    EXPECT_GE(q.values[i], q.values[i - 1]);
}

TEST(FailureTimeQuantiles, Validation) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(1)));
  EXPECT_THROW(failure_time_quantiles(m, {}, quick(10)), DomainError);
  EXPECT_THROW(failure_time_quantiles(m, {1.5}, quick(10)), DomainError);
}

TEST(CompareModels, InfiniteHorizonThrowsBeforeAnyTrajectory) {
  // A trajectory with an infinite horizon never ends; the kernel's run
  // check refuses it, for each entry point that runs the kernel directly.
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const AnalysisSettings s = quick(10, std::numeric_limits<double>::infinity());
  EXPECT_THROW(compare_models(model, model, s), DomainError);
  EXPECT_THROW(failure_time_quantiles(model, {0.5}, s), DomainError);
}

TEST(FailureTimeQuantiles, StopAtTheRunControlCoversThePrefix) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  RunControl control;
  control.set_trajectory_budget(1000);
  AnalysisSettings s = quick(100000);
  s.control = &control;
  const FailureQuantiles q = failure_time_quantiles(model, {0.5}, s);
  EXPECT_GT(q.trajectories, 0u);
  EXPECT_LT(q.trajectories, 100000u);
  EXPECT_EQ(q.stop_reason, StopReason::BudgetExhausted);
}

TEST(CompareModels, StopAtTheRunControlPairsTheCompletedPrefix) {
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const FaultMaintenanceTree sparse =
      eijoint::build_ei_joint(params, eijoint::inspections_per_year(1));
  const FaultMaintenanceTree current =
      eijoint::build_ei_joint(params, eijoint::current_policy());
  RunControl control;
  control.set_trajectory_budget(1000);
  AnalysisSettings s = quick(100000);
  s.control = &control;
  // The pool runs the variants in plan order, so a stop this early leaves
  // the second one no trajectory to pair with.
  EXPECT_THROW(compare_models(sparse, current, s), ResourceLimitError);

  // A later stop pairs the prefix both variants completed.
  s.trajectories = 4000;
  control.set_trajectory_budget(6000);
  const PairedComparison cmp = compare_models(sparse, current, s);
  EXPECT_GT(cmp.trajectories, 0u);
  EXPECT_LT(cmp.trajectories, 4000u);
}

TEST(CompareModels, TrajectoryBudgetCountsEveryBlock) {
  // The variants run in blocks, one pool run each; the budget counts the
  // trajectories of every block, and the blocks before the stop pair up.
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  const FaultMaintenanceTree sparse =
      eijoint::build_ei_joint(params, eijoint::inspections_per_year(1));
  const FaultMaintenanceTree current =
      eijoint::build_ei_joint(params, eijoint::current_policy());
  RunControl control;
  control.set_trajectory_budget(200000);
  AnalysisSettings s = quick(400000, 1.0);
  s.control = &control;
  const PairedComparison cmp = compare_models(sparse, current, s);
  EXPECT_GT(cmp.trajectories, 0u);
  EXPECT_LT(cmp.trajectories, 400000u);
  EXPECT_EQ(cmp.stop_reason, StopReason::BudgetExhausted);
}

}  // namespace
}  // namespace fmtree::smc
