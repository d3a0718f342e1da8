#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "batch/sweep.hpp"
#include "eijoint/scenarios.hpp"
#include "maintenance/policy.hpp"
#include "util/error.hpp"

namespace fmtree::maintenance {
namespace {

fmt::FaultMaintenanceTree bare_model() {
  fmt::FaultMaintenanceTree m;
  const fmt::NodeId a = m.add_ebe("wear", fmt::DegradationModel::erlang(3, 5.0, 2),
                                  fmt::RepairSpec{"fix", 100});
  const fmt::NodeId b = m.add_basic_event("shock", Distribution::exponential(0.05));
  m.set_top(m.add_or("top", {a, b}));
  return m;
}

TEST(Policy, ApplyAddsModulesFromPolicy) {
  fmt::FaultMaintenanceTree m = bare_model();
  MaintenancePolicy p;
  p.name = "test";
  p.inspection_period = 0.5;
  p.inspection_cost = 10;
  p.replacement_period = 20;
  p.replacement_cost = 1000;
  p.corrective = fmt::CorrectivePolicy{true, 0.1, 500, 0};
  apply_policy(m, p);
  ASSERT_EQ(m.inspections().size(), 1u);
  EXPECT_DOUBLE_EQ(m.inspections()[0].period, 0.5);
  // Only the inspectable leaf is targeted.
  ASSERT_EQ(m.inspections()[0].targets.size(), 1u);
  EXPECT_EQ(m.name(m.inspections()[0].targets[0]), "wear");
  // Replacement covers everything.
  ASSERT_EQ(m.replacements().size(), 1u);
  EXPECT_EQ(m.replacements()[0].targets.size(), 2u);
  EXPECT_TRUE(m.corrective().enabled);
  EXPECT_NO_THROW(m.validate());
}

TEST(Policy, ZeroPeriodsMeanNoModules) {
  fmt::FaultMaintenanceTree m = bare_model();
  MaintenancePolicy p;  // all periods 0
  apply_policy(m, p);
  EXPECT_TRUE(m.inspections().empty());
  EXPECT_TRUE(m.replacements().empty());
}

TEST(Policy, InspectionWithoutInspectableLeavesThrows) {
  fmt::FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("shock", Distribution::exponential(0.1)));
  MaintenancePolicy p;
  p.inspection_period = 1.0;
  EXPECT_THROW(apply_policy(m, p), ModelError);
}

TEST(Policy, FrequencyHelpers) {
  MaintenancePolicy p;
  p.inspection_period = 0.25;
  EXPECT_DOUBLE_EQ(p.inspections_per_year(), 4.0);
  p.inspection_period = 0;
  EXPECT_DOUBLE_EQ(p.inspections_per_year(), 0.0);
  EXPECT_FALSE(p.has_inspections());
}

/// bare_model() under `policy`, plus a second inspection module with a
/// period and first round of its own.
fmt::FaultMaintenanceTree twice_inspected_model(const MaintenancePolicy& policy) {
  fmt::FaultMaintenanceTree m = bare_model();
  apply_policy(m, policy);
  m.add_inspection(fmt::InspectionModule{"offset", 2.0, 0.7, 5.0, {*m.find("wear")}});
  return m;
}

TEST(FrequencyJobs, LabelsPeriodsAndFirstRounds) {
  MaintenancePolicy p;
  p.name = "base";
  p.inspection_period = 0.25;
  p.inspection_cost = 35;
  const fmt::FaultMaintenanceTree m = twice_inspected_model(p);
  smc::AnalysisSettings s;
  s.seed = 5;
  const std::vector<double> per_year{0, 2, 4};
  const std::vector<batch::SweepJob> jobs = frequency_jobs(m, per_year, s);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].label, "no-inspection");
  EXPECT_EQ(jobs[1].label, "2x-per-year");
  EXPECT_EQ(jobs[2].label, "4x-per-year");
  EXPECT_TRUE(jobs[0].model.inspections().empty());
  // Every module is rescheduled, its first round moved to the new period;
  // names, costs and targets stay the model's own.
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    ASSERT_EQ(jobs[j].model.inspections().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      const fmt::InspectionModule& module = jobs[j].model.inspections()[i];
      const fmt::InspectionModule& original = m.inspections()[i];
      EXPECT_EQ(module.name, original.name);
      EXPECT_DOUBLE_EQ(module.period, 1.0 / per_year[j]);
      EXPECT_DOUBLE_EQ(module.first_at, 1.0 / per_year[j]);
      EXPECT_DOUBLE_EQ(module.cost, original.cost);
      EXPECT_EQ(module.targets, original.targets);
    }
  }
  for (const batch::SweepJob& job : jobs) EXPECT_EQ(job.settings.seed, 5u);
  // The input model is a template, not edited.
  EXPECT_DOUBLE_EQ(m.inspections()[1].first_at, 0.7);
}

TEST(FrequencyJobs, RejectsEmptyNegativeAndUninspectableGrids) {
  MaintenancePolicy p;
  p.inspection_period = 1.0;
  const fmt::FaultMaintenanceTree inspected = twice_inspected_model(p);
  const smc::AnalysisSettings s;
  EXPECT_THROW(frequency_jobs(inspected, {}, s), DomainError);
  EXPECT_THROW(frequency_jobs(inspected, {2, -1.0}, s), DomainError);
  EXPECT_THROW(frequency_jobs(inspected, {std::numeric_limits<double>::infinity()}, s),
               DomainError);
  EXPECT_THROW(frequency_jobs(inspected, {std::nan("")}, s), DomainError);
  // A model without inspection modules has nothing to reschedule: f > 0
  // would label an uninspected job as inspected.
  const fmt::FaultMaintenanceTree bare = bare_model();
  EXPECT_THROW(frequency_jobs(bare, {0, 4}, s), DomainError);
  // Frequency 0 alone only clears the (absent) inspections.
  EXPECT_EQ(frequency_jobs(bare, {0}, s).size(), 1u);
}

TEST(FrequencyJobs, CheapestSkipsIncompleteJobsAndKeepsTheFirstTie) {
  std::vector<batch::JobResult> results(5);
  const double costs[] = {10, 1, 5, 5, 2};
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].completed = true;
    results[i].report.cost_per_year.point = costs[i];
  }
  results[1].completed = false;  // interrupted
  results[4].completed = false;
  results[4].failed = true;
  EXPECT_EQ(cheapest(results), 2u);
  for (batch::JobResult& r : results) r.completed = false;
  EXPECT_EQ(cheapest(results), results.size());
  EXPECT_EQ(cheapest({}), 0u);
}

TEST(FrequencyJobs, SweepFindsInteriorOptimum) {
  // Inspections are cheap relative to failures, but over-inspection must
  // eventually dominate: the swept curve should have its minimum strictly
  // inside and cost must be reported for every frequency.
  fmt::FaultMaintenanceTree m = bare_model();
  MaintenancePolicy base;
  base.inspection_period = 1.0;
  base.inspection_cost = 30;
  base.corrective = fmt::CorrectivePolicy{true, 0.05, 3000, 0};
  apply_policy(m, base);
  smc::AnalysisSettings s;
  s.horizon = 10;
  s.trajectories = 4000;
  s.seed = 17;
  batch::SweepPlan plan;
  plan.jobs = frequency_jobs(m, {0, 1, 4, 52}, s);
  const batch::SweepOutcome outcome = batch::run_sweep(plan);
  ASSERT_EQ(outcome.results.size(), 4u);
  for (const batch::JobResult& r : outcome.results) {
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.report.cost_per_year.point, 0.0);
  }
  const std::size_t best = cheapest(outcome.results);
  ASSERT_LT(best, outcome.results.size());
  const double best_cost = outcome.results[best].report.cost_per_year.point;
  // No inspection must be more expensive than the best found.
  EXPECT_GT(outcome.results[0].report.cost_per_year.point, best_cost);
  // Weekly inspections (52/yr at 30 each = 1560/yr) must also lose.
  EXPECT_GT(outcome.results[3].report.cost_per_year.point, best_cost);
}

TEST(Scenarios, CatalogueIsConsistent) {
  const auto strategies = eijoint::paper_strategies();
  ASSERT_GE(strategies.size(), 6u);
  EXPECT_EQ(strategies[0].name, "corrective-only");
  EXPECT_FALSE(strategies[0].has_inspections());
  bool found_current = false;
  for (const auto& s : strategies) {
    EXPECT_TRUE(s.corrective.enabled);  // failures always fixed
    if (s.name == "current-4x") {
      found_current = true;
      EXPECT_DOUBLE_EQ(s.inspection_period, 0.25);
    }
  }
  EXPECT_TRUE(found_current);
  // The renewal variant really has a replacement period.
  EXPECT_GT(strategies.back().replacement_period, 0.0);
}

TEST(Scenarios, InspectionFrequencyFactory) {
  EXPECT_DOUBLE_EQ(eijoint::inspections_per_year(8).inspection_period, 0.125);
  EXPECT_FALSE(eijoint::inspections_per_year(0).has_inspections());
}

}  // namespace
}  // namespace fmtree::maintenance
