#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "../sim/sim_testing.hpp"
#include "smc/kpi.hpp"
#include "smc/pool.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

using fmt::CorrectivePolicy;
using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::NodeId;

FaultMaintenanceTree exponential_leaf(double rate) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("leaf", Distribution::exponential(rate)));
  return m;
}

FaultMaintenanceTree series_two_exponentials() {
  FaultMaintenanceTree m;
  const NodeId a = m.add_basic_event("a", Distribution::exponential(0.3));
  const NodeId b = m.add_basic_event("b", Distribution::exponential(0.2));
  m.set_top(m.add_or("top", {a, b}));
  return m;
}

AnalysisSettings fast_settings(double horizon, std::uint64_t n = 20000) {
  AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = n;
  s.seed = 11;
  s.threads = 4;
  return s;
}

// ---- Pool ------------------------------------------------------------------

TEST(Pool, FoldsInIndexOrderAtAnyThreadCount) {
  // The fold must receive trajectory i as the i-th call whatever the worker
  // count: the kernel run straight through is the order to match.
  const FaultMaintenanceTree m = series_two_exponentials();
  sim::SimOptions opts;
  opts.horizon = 5.0;
  const std::vector<sim::TrajectoryResult> serial =
      sim_test::kernel_run(m, 77, 0, 500, opts);
  for (unsigned threads : {1u, 4u, 7u}) {
    const sim_test::PoolRun run = sim_test::pool_run(m, 77, 500, opts, threads);
    ASSERT_EQ(run.results.size(), 500u) << threads;
    EXPECT_EQ(run.outcome.stop_reason, StopReason::None);
    for (std::size_t i = 0; i < 500; ++i)
      ASSERT_TRUE(sim_test::bit_identical(serial[i], run.results[i]))
          << threads << " threads, trajectory " << i;
  }
}

TEST(Pool, ShorterJobFoldsAPrefixOfALongerOne) {
  // What makes a truncated run exact: a job over n trajectories folds the
  // first n of any longer job on the same seed.
  const FaultMaintenanceTree m = series_two_exponentials();
  sim::SimOptions opts;
  opts.horizon = 5.0;
  const sim_test::PoolRun all = sim_test::pool_run(m, 5, 300, opts, 3);
  const sim_test::PoolRun head = sim_test::pool_run(m, 5, 130, opts, 2);
  ASSERT_EQ(head.results.size(), 130u);
  for (std::size_t i = 0; i < head.results.size(); ++i)
    ASSERT_TRUE(sim_test::bit_identical(all.results[i], head.results[i])) << i;
}

TEST(Pool, AFoldEndsItsJobAndAFailureStaysInItsJob) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const sim::BatchExecutor kernel(m);
  sim::SimOptions opts;
  opts.horizon = 5.0;
  std::uint64_t seen = 0;
  const Fold ends = [&seen](sim::TrajectoryResult&) { return ++seen != 100; };
  const Fold throws = [n = 0](sim::TrajectoryResult&) mutable {
    if (++n == 150) throw std::runtime_error("fold failed");
    return true;
  };
  std::vector<sim::TrajectoryResult> rest;
  const auto job = [&](std::uint64_t seed, std::uint64_t n, Fold fold) {
    return PoolJob{.executor = &kernel, .options = &opts, .seed = seed,
                   .trajectories = n, .fold = std::move(fold)};
  };
  PoolJob jobs[] = {job(1, 5000, ends), job(2, 5000, throws),
                    job(3, 700, sim_test::collect_into(rest))};
  PoolOptions options;
  options.threads = 4;
  const PoolOutcome outcome = run_pool(jobs, options);
  EXPECT_EQ(outcome.stop_reason, StopReason::None);
  // The fold that said stop received exactly the trajectories up to it.
  EXPECT_TRUE(jobs[0].ended);
  EXPECT_TRUE(jobs[0].finished());
  EXPECT_EQ(jobs[0].folded, 100u);
  EXPECT_EQ(seen, 100u);
  // A throwing fold fails its own job only.
  EXPECT_TRUE(jobs[1].error);
  EXPECT_FALSE(jobs[1].finished());
  EXPECT_FALSE(jobs[2].error);
  EXPECT_TRUE(jobs[2].finished());
  ASSERT_EQ(rest.size(), 700u);
  const std::vector<sim::TrajectoryResult> serial =
      sim_test::kernel_run(m, 3, 0, 700, opts);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_TRUE(sim_test::bit_identical(serial[i], rest[i])) << i;
}

// ---- KPIs vs closed forms ------------------------------------------------------

TEST(Kpi, ReliabilityMatchesExponentialLaw) {
  const FaultMaintenanceTree m = exponential_leaf(0.5);
  const KpiReport k = analyze(m, fast_settings(2.0, 40000));
  const double expected = std::exp(-0.5 * 2.0);
  EXPECT_NEAR(k.reliability.point, expected, 0.01);
  EXPECT_TRUE(k.reliability.contains(expected));
}

TEST(Kpi, ReliabilityOfSeriesSystem) {
  // Series of exp(0.3) and exp(0.2): survival = exp(-0.5 t).
  const FaultMaintenanceTree m = series_two_exponentials();
  const KpiReport k = analyze(m, fast_settings(3.0, 40000));
  EXPECT_NEAR(k.reliability.point, std::exp(-0.5 * 3.0), 0.01);
}

TEST(Kpi, ExpectedFailuresOfPoissonRenewal) {
  // Exponential leaf with instant corrective renewal is a Poisson process:
  // E[N(t)] = rate * t.
  FaultMaintenanceTree m = exponential_leaf(0.4);
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  const KpiReport k = analyze(m, fast_settings(10.0, 40000));
  EXPECT_NEAR(k.expected_failures.point, 4.0, 0.05);
  EXPECT_TRUE(k.expected_failures.contains(4.0));
  EXPECT_NEAR(k.failures_per_year.point, 0.4, 0.005);
}

TEST(Kpi, AvailabilityOfRenewalWithDelay) {
  // Failure rate r with repair delay d: long-run availability ~ m/(m+d)
  // where m = 1/r is the mean up time (alternating renewal process).
  FaultMaintenanceTree m = exponential_leaf(1.0);
  m.set_corrective(CorrectivePolicy{true, 0.25, 0, 0});
  const KpiReport k = analyze(m, fast_settings(200.0, 4000));
  EXPECT_NEAR(k.availability.point, 1.0 / 1.25, 0.01);
}

TEST(Kpi, CostAccountingMatchesCounts) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2.0, 2),
                             fmt::RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(fmt::InspectionModule{"i", 0.5, -1, 10, {a}});
  m.set_corrective(CorrectivePolicy{true, 0.0, 1000, 0});
  const KpiReport k = analyze(m, fast_settings(10.0, 5000));
  EXPECT_NEAR(k.mean_cost.inspection, k.mean_inspections * 10, 1e-9);
  EXPECT_NEAR(k.mean_cost.repair, k.mean_repairs * 100, 1e-9);
  EXPECT_NEAR(k.mean_cost.corrective, k.expected_failures.point * 1000, 1e-9);
  EXPECT_NEAR(k.total_cost.point,
              k.mean_cost.inspection + k.mean_cost.repair + k.mean_cost.corrective +
                  k.mean_cost.replacement + k.mean_cost.downtime,
              1e-9);
}

TEST(Kpi, PerLeafAttributionSumsToTotal) {
  FaultMaintenanceTree m = series_two_exponentials();
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  const KpiReport k = analyze(m, fast_settings(5.0, 20000));
  const double sum = k.failures_per_leaf[0] + k.failures_per_leaf[1];
  EXPECT_NEAR(sum, k.expected_failures.point, 1e-9);
  // Rate 0.3 leaf causes ~60% of failures.
  EXPECT_NEAR(k.failures_per_leaf[0] / sum, 0.6, 0.02);
}

TEST(Kpi, SequentialStoppingReachesTarget) {
  FaultMaintenanceTree m = exponential_leaf(0.5);
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  AnalysisSettings s = fast_settings(10.0, 2000000);
  s.target_relative_error = 0.02;
  s.batch = 4096;
  const KpiReport k = analyze(m, s);
  EXPECT_LT(k.trajectories, 2000000u);  // stopped early
  EXPECT_LE(k.expected_failures.half_width(),
            0.02 * k.expected_failures.point * 1.05);
}

TEST(Kpi, SettingsValidation) {
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  AnalysisSettings s;
  s.horizon = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.horizon = 1;
  s.trajectories = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.trajectories = 10;
  s.confidence = 1.5;
  EXPECT_THROW(analyze(m, s), DomainError);
}

TEST(Kpi, NegativeDiscountRateIsADomainErrorAtAnyThreadCount) {
  // Rejected up front: the kernel would throw inside a worker thread.
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  for (double rate : {-0.1, std::nan(""), HUGE_VAL}) {
    AnalysisSettings s = fast_settings(5.0, 2000);
    s.discount_rate = rate;
    EXPECT_THROW(analyze(m, s), DomainError) << rate;
    EXPECT_THROW(reliability_curve(m, linspace_grid(5.0, 5), s), DomainError) << rate;
  }
}

TEST(Kpi, AdaptiveRunWithZeroBatchIsADomainError) {
  // A zero batch would never reach a stopping check.
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  AnalysisSettings s = fast_settings(5.0, 2000);
  s.target_relative_error = 0.05;
  s.batch = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.target_relative_error = 0.0;  // the batch only matters to adaptive runs
  EXPECT_EQ(analyze(m, s).trajectories, 2000u);
}

// ---- Curves ---------------------------------------------------------------------

TEST(Curves, ReliabilityCurveMatchesExponential) {
  const FaultMaintenanceTree m = exponential_leaf(0.3);
  const auto grid = linspace_grid(10.0, 10);
  const auto curve = reliability_curve(m, grid, fast_settings(10.0, 40000));
  ASSERT_EQ(curve.size(), grid.size());
  for (const CurvePoint& pt : curve) {
    const double expected = std::exp(-0.3 * pt.t);
    EXPECT_NEAR(pt.value.point, expected, 0.015) << "t=" << pt.t;
  }
  EXPECT_DOUBLE_EQ(curve.front().value.point, 1.0);  // R(0) = 1
}

TEST(Curves, ReliabilityCurveIsNonincreasing) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const auto curve =
      reliability_curve(m, linspace_grid(8.0, 16), fast_settings(8.0, 10000));
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].value.point, curve[i - 1].value.point + 1e-12);
}

TEST(Curves, GridHelpersValidate) {
  EXPECT_THROW(linspace_grid(0, 5), DomainError);
  EXPECT_THROW(linspace_grid(5, 0), DomainError);
  const auto g = linspace_grid(10, 5);
  ASSERT_EQ(g.size(), 6u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 10.0);
}

}  // namespace
}  // namespace fmtree::smc
