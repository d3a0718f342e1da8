// RunControl semantics and the truncation contract: a run stopped early
// delivers the longest fully-completed trajectory prefix, bit-identical to
// an untruncated run over exactly those streams.
#include "smc/run_control.hpp"

#include <gtest/gtest.h>

#include "../sim/sim_testing.hpp"
#include "fmt/parser.hpp"
#include "smc/kpi.hpp"
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
  sim::SimOptions run_opts;
  run_opts.horizon = 10.0;
  const sim_test::PoolRun r = sim_test::pool_run(model, 7, 200, run_opts, 2);
  EXPECT_EQ(r.results.size(), 200u);
  EXPECT_EQ(r.outcome.stop_reason, StopReason::None);
  EXPECT_EQ(r.outcome.trajectories, 200u);
}

TEST(RunControl, NullControlMatchesNoControlBitExactly) {
  // Polling a control that never fires must not perturb results.
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  sim::SimOptions opts;
  opts.horizon = 10.0;
  RunControl idle;  // no condition armed
  const sim_test::PoolRun plain = sim_test::pool_run(model, 11, 300, opts, 3);
  const sim_test::PoolRun controlled = sim_test::pool_run(model, 11, 300, opts, 3, &idle);
  EXPECT_EQ(controlled.outcome.stop_reason, StopReason::None);
  ASSERT_EQ(plain.results.size(), controlled.results.size());
  for (std::size_t i = 0; i < plain.results.size(); ++i)
    ASSERT_TRUE(sim_test::bit_identical(plain.results[i], controlled.results[i])) << i;
}

TEST(RunControl, TruncatedPrefixBitIdenticalToUntruncatedRun) {
  // Budget-stop a multi-threaded run, then rerun exactly the delivered
  // prefix without a control: every trajectory must match bit for bit.
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  sim::SimOptions opts;
  opts.horizon = 10.0;

  // The budget exceeds the 8,192 trajectories the pool can simulate while
  // chunk 0 waits: its reorder window spans kWindowPerWorker (32) x 4 workers
  // = 128 chunks of kChunk (64), chunk 0 included. So the budget cannot stop
  // the run before chunk 0 completes, and the prefix is nonempty.
  RunControl control;
  control.set_trajectory_budget(10000);
  const sim_test::PoolRun truncated =
      sim_test::pool_run(model, 42, 40000, opts, 4, &control);
  EXPECT_EQ(truncated.outcome.stop_reason, StopReason::BudgetExhausted);
  // The delivered prefix hovers around the budget but is only guaranteed to
  // be nonempty and partial (a slow worker shortens it).
  ASSERT_GT(truncated.results.size(), 0u);
  ASSERT_LT(truncated.results.size(), 40000u);

  const sim_test::PoolRun reference =
      sim_test::pool_run(model, 42, truncated.results.size(), opts, 4);
  ASSERT_EQ(reference.results.size(), truncated.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i)
    ASSERT_TRUE(sim_test::bit_identical(reference.results[i], truncated.results[i])) << i;
}

TEST(RunControl, AnalyzeReportsTruncationOverExactPrefix) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 20000;
  s.seed = 9;
  s.threads = 2;
  // The budget exceeds the 4,096 trajectories (kWindowPerWorker 32 x 2
  // workers x kChunk 64) the pool can simulate while chunk 0 waits, so the
  // prefix is nonempty.
  RunControl control;
  control.set_trajectory_budget(5000);
  s.control = &control;
  const KpiReport truncated = analyze(model, s);
  ASSERT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.stop_reason, StopReason::BudgetExhausted);
  ASSERT_LT(truncated.trajectories, 20000u);

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
  // The budget exceeds the 4,096 trajectories (kWindowPerWorker 32 x 2
  // workers x kChunk 64) the pool can simulate while chunk 0 waits, so the
  // prefix is nonempty.
  RunControl control;
  control.set_trajectory_budget(5000);
  s.control = &control;
  const KpiReport k = analyze(model, s);
  EXPECT_TRUE(k.truncated);
  EXPECT_EQ(k.stop_reason, StopReason::BudgetExhausted);
  EXPECT_LT(k.trajectories, 6300u);  // stopped near the budget, not the cap
}

TEST(RunControl, HugeRunStopsAtBudgetInBoundedMemory) {
  // 2^40 requested trajectories: nothing may be sized by the request (one
  // byte per trajectory alone would be a terabyte), so the run must stop at
  // its budget and deliver an exact prefix.
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = std::uint64_t{1} << 40;
  s.seed = 3;
  s.threads = 4;
  RunControl control;
  control.set_trajectory_budget(20000);
  s.control = &control;
  const KpiReport truncated = analyze(model, s);
  ASSERT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.stop_reason, StopReason::BudgetExhausted);
  ASSERT_GT(truncated.trajectories, 0u);
  EXPECT_LE(truncated.trajectories, 20000u + 64u * 4u * s.threads);

  AnalysisSettings exact = s;
  exact.control = nullptr;
  exact.trajectories = truncated.trajectories;
  const KpiReport reference = analyze(model, exact);
  EXPECT_EQ(reference.reliability.point, truncated.reliability.point);
  EXPECT_EQ(reference.expected_failures.lo, truncated.expected_failures.lo);
  EXPECT_EQ(reference.total_cost.hi, truncated.total_cost.hi);
  EXPECT_EQ(reference.npv_cost.point, truncated.npv_cost.point);
  EXPECT_EQ(reference.availability.point, truncated.availability.point);
  EXPECT_EQ(reference.failures_per_leaf, truncated.failures_per_leaf);
  EXPECT_EQ(reference.repairs_per_leaf, truncated.repairs_per_leaf);
}

}  // namespace
}  // namespace fmtree::smc
