// RunControl semantics and the truncation contract: a run stopped early
// delivers the longest fully-completed trajectory prefix, bit-identical to
// an untruncated run over exactly those streams.
#include "smc/run_control.hpp"

#include <gtest/gtest.h>

#include "fmt/parser.hpp"
#include "smc/kpi.hpp"
#include "smc/runner.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

const char* kModel = R"(
toplevel System;
System or Lipping Contamination;
Lipping ebe phases=4 mean=6 threshold=3 repair_cost=800;
Contamination ebe phases=3 mean=3 threshold=2 repair_cost=250;
inspection Visual period=0.5 cost=35 targets Lipping Contamination;
corrective cost=8000 delay=0.02 downtime_rate=50000;
)";

TEST(RunControl, StopConditionsAndPriority) {
  RunControl c;
  EXPECT_EQ(c.should_stop(0), StopReason::None);

  c.set_trajectory_budget(100);
  EXPECT_EQ(c.should_stop(99), StopReason::None);
  EXPECT_EQ(c.should_stop(100), StopReason::BudgetExhausted);

  c.set_timeout(-1.0);  // already expired
  EXPECT_EQ(c.should_stop(0), StopReason::DeadlineExpired);

  c.request_stop();  // external stop outranks everything
  EXPECT_TRUE(c.stop_requested());
  EXPECT_EQ(c.should_stop(0), StopReason::Interrupted);

  c.reset();
  EXPECT_FALSE(c.stop_requested());
  EXPECT_EQ(c.should_stop(1'000'000), StopReason::None);
}

TEST(RunControl, StopReasonNames) {
  EXPECT_STREQ(stop_reason_name(StopReason::None), "none");
  EXPECT_STREQ(stop_reason_name(StopReason::Interrupted), "interrupted");
  EXPECT_STREQ(stop_reason_name(StopReason::DeadlineExpired), "deadline");
  EXPECT_STREQ(stop_reason_name(StopReason::BudgetExhausted), "budget");
}

TEST(RunControl, UncontrolledRunIsNeverTruncated) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const ParallelRunner runner(model, 2);
  sim::SimOptions run_opts;
  run_opts.horizon = 10.0;
  const BatchResult r = runner.run(7, 0, 200, run_opts);
  EXPECT_EQ(r.completed, 200u);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.stop_reason, StopReason::None);
  EXPECT_EQ(r.summaries.size(), 200u);
}

TEST(RunControl, NullControlMatchesNoControlBitExactly) {
  // The controlled code path (sparse deltas, prefix accounting) must not
  // perturb results when no stop fires.
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const ParallelRunner runner(model, 3);
  sim::SimOptions opts;
  opts.horizon = 10.0;
  RunControl idle;  // no condition armed
  const BatchResult plain = runner.run(11, 0, 300, opts);
  const BatchResult controlled = runner.run(11, 0, 300, opts, &idle);
  EXPECT_FALSE(controlled.truncated);
  ASSERT_EQ(plain.summaries.size(), controlled.summaries.size());
  for (std::size_t i = 0; i < plain.summaries.size(); ++i) {
    EXPECT_EQ(plain.summaries[i].first_failure_time,
              controlled.summaries[i].first_failure_time);
    EXPECT_EQ(plain.summaries[i].cost.total(), controlled.summaries[i].cost.total());
  }
  EXPECT_EQ(plain.failures_per_leaf, controlled.failures_per_leaf);
  EXPECT_EQ(plain.repairs_per_leaf, controlled.repairs_per_leaf);
}

TEST(RunControl, TruncatedPrefixBitIdenticalToUntruncatedRun) {
  // Budget-stop a multi-threaded run, then rerun exactly the delivered
  // prefix without a control: every statistic must match bit for bit.
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const ParallelRunner runner(model, 4);
  sim::SimOptions opts;
  opts.horizon = 10.0;

  RunControl control;
  control.set_trajectory_budget(120);
  const BatchResult truncated = runner.run(42, 0, 5000, opts, &control);
  ASSERT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.stop_reason, StopReason::BudgetExhausted);
  // The delivered prefix hovers around the budget but is only guaranteed to
  // be nonempty and partial (a slow worker shortens it).
  ASSERT_GT(truncated.completed, 0u);
  ASSERT_LT(truncated.completed, 5000u);
  ASSERT_EQ(truncated.summaries.size(), truncated.completed);

  const BatchResult reference = runner.run(42, 0, truncated.completed, opts);
  ASSERT_EQ(reference.summaries.size(), truncated.summaries.size());
  for (std::size_t i = 0; i < reference.summaries.size(); ++i) {
    EXPECT_EQ(reference.summaries[i].first_failure_time,
              truncated.summaries[i].first_failure_time);
    EXPECT_EQ(reference.summaries[i].failures, truncated.summaries[i].failures);
    EXPECT_EQ(reference.summaries[i].downtime, truncated.summaries[i].downtime);
    EXPECT_EQ(reference.summaries[i].discounted_total,
              truncated.summaries[i].discounted_total);
  }
  EXPECT_EQ(reference.failures_per_leaf, truncated.failures_per_leaf);
  EXPECT_EQ(reference.repairs_per_leaf, truncated.repairs_per_leaf);
}

TEST(RunControl, AnalyzeReportsTruncationOverExactPrefix) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 4000;
  s.seed = 9;
  s.threads = 2;
  RunControl control;
  control.set_trajectory_budget(150);
  s.control = &control;
  const KpiReport truncated = analyze(model, s);
  ASSERT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.stop_reason, StopReason::BudgetExhausted);
  ASSERT_LT(truncated.trajectories, 4000u);

  // The same analysis asked for exactly the delivered prefix is identical.
  AnalysisSettings exact = s;
  exact.control = nullptr;
  exact.trajectories = truncated.trajectories;
  const KpiReport reference = analyze(model, exact);
  EXPECT_FALSE(reference.truncated);
  EXPECT_EQ(reference.reliability.point, truncated.reliability.point);
  EXPECT_EQ(reference.expected_failures.point, truncated.expected_failures.point);
  EXPECT_EQ(reference.expected_failures.lo, truncated.expected_failures.lo);
  EXPECT_EQ(reference.total_cost.point, truncated.total_cost.point);
  EXPECT_EQ(reference.availability.hi, truncated.availability.hi);
  EXPECT_EQ(reference.failures_per_leaf, truncated.failures_per_leaf);
  EXPECT_EQ(reference.repairs_per_leaf, truncated.repairs_per_leaf);
}

TEST(RunControl, PreStoppedRunThrowsResourceLimitWithReason) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 100;
  RunControl control;
  control.request_stop();  // fires before the first trajectory
  s.control = &control;
  try {
    (void)analyze(model, s);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos);
  }
}

TEST(RunControl, AdaptiveBatchingStopsAtBudget) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 100000;
  s.batch = 512;
  s.target_relative_error = 1e-9;  // would need far more than the budget
  s.threads = 2;
  RunControl control;
  control.set_trajectory_budget(700);
  s.control = &control;
  const KpiReport k = analyze(model, s);
  EXPECT_TRUE(k.truncated);
  EXPECT_EQ(k.stop_reason, StopReason::BudgetExhausted);
  EXPECT_LT(k.trajectories, 2000u);  // stopped near the budget, not the cap
}

}  // namespace
}  // namespace fmtree::smc
