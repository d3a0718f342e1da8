#include "compressor/compressor.hpp"

#include <gtest/gtest.h>

#include "../sim/sim_testing.hpp"
#include "ft/cutsets.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::compressor {
namespace {

smc::AnalysisSettings settings(std::uint64_t n = 4000) {
  smc::AnalysisSettings s;
  s.horizon = 20.0;
  s.trajectories = n;
  s.seed = 1234;
  return s;
}

TEST(Compressor, StructureMatchesTaxonomy) {
  const auto m = build_compressor(CompressorParameters::defaults(), current_plan());
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.num_ebes(), 9u);
  for (const char* name :
       {"cylinder_wear", "piston_rings", "valve_wear", "dryer_saturation",
        "oil_carryover", "oil_degradation", "oil_pump", "motor_bearing",
        "motor_winding"}) {
    EXPECT_TRUE(m.find(name).has_value()) << name;
  }
  EXPECT_EQ(m.name(m.top()), "compressor_failure");
  // All-OR structure: every leaf is a singleton cut set.
  EXPECT_EQ(ft::minimal_cut_sets(m.structure()).size(), 9u);
}

TEST(Compressor, TwoInspectionTiersWithDisjointScopes) {
  const auto m = build_compressor(CompressorParameters::defaults(), current_plan());
  ASSERT_EQ(m.inspections().size(), 2u);
  const auto& minor = m.inspections()[0];
  const auto& major = m.inspections()[1];
  EXPECT_LT(minor.period, major.period);
  EXPECT_LT(minor.cost, major.cost);
  EXPECT_EQ(minor.targets.size(), 3u);  // consumables
  EXPECT_EQ(major.targets.size(), 4u);  // wear parts
  for (fmt::NodeId t1 : minor.targets)
    for (fmt::NodeId t2 : major.targets) EXPECT_NE(t1, t2);
}

TEST(Compressor, RdepCouplingConfigured) {
  const auto m = build_compressor(CompressorParameters::defaults(), current_plan());
  ASSERT_EQ(m.rdeps().size(), 3u);
  for (const fmt::RateDependency& r : m.rdeps()) {
    EXPECT_EQ(m.name(r.trigger), "oil_degradation");
    EXPECT_EQ(r.trigger_phase, 3);
  }
  CompressorParameters p = CompressorParameters::defaults();
  p.enable_rdep = false;
  EXPECT_TRUE(build_compressor(p, current_plan()).rdeps().empty());
}

TEST(Compressor, PlanCatalogueShapes) {
  const auto plans = compressor_plans();
  ASSERT_EQ(plans.size(), 5u);
  EXPECT_EQ(plans[0].name, "corrective-only");
  EXPECT_LE(plans[0].minor_period, 0.0);
  EXPECT_GT(plans.back().overhaul_period, 0.0);
}

TEST(Compressor, MinorServiceBeatsMajorInspectionAlone) {
  // The consumables dominate the failure intensity and the oil coupling
  // amplifies wear, so servicing consumables must beat inspecting only the
  // wear parts.
  const auto plans = compressor_plans();
  const auto& minor_only = plans[1];
  const auto& major_only = plans[2];
  const auto k_minor = smc::analyze(
      build_compressor(CompressorParameters::defaults(), minor_only), settings());
  const auto k_major = smc::analyze(
      build_compressor(CompressorParameters::defaults(), major_only), settings());
  EXPECT_LT(k_minor.failures_per_year.point, k_major.failures_per_year.point);
  EXPECT_LT(k_minor.cost_per_year.point, k_major.cost_per_year.point);
}

TEST(Compressor, CombinedPlanIsCheapestInCatalogue) {
  double best = 1e300, current = 0;
  for (const CompressorPlan& plan : compressor_plans()) {
    const auto k = smc::analyze(
        build_compressor(CompressorParameters::defaults(), plan), settings());
    best = std::min(best, k.cost_per_year.point);
    if (plan.name == "current") current = k.cost_per_year.point;
  }
  EXPECT_LE(current, best * 1.02);
}

TEST(Compressor, OilCouplingDrivesWearFailures) {
  // Disabling the RDEP must reduce wear-part failures under sparse
  // maintenance (oil often degraded).
  CompressorParameters with = CompressorParameters::defaults();
  CompressorParameters without = with;
  without.enable_rdep = false;
  CompressorPlan sparse = current_plan();
  sparse.minor_period = 0;  // oil never serviced
  const auto k_with = smc::analyze(build_compressor(with, sparse), settings(8000));
  const auto k_without =
      smc::analyze(build_compressor(without, sparse), settings(8000));
  const auto model = build_compressor(with, sparse);
  const auto idx = [&](const char* name) { return model.ebe_index(*model.find(name)); };
  const double wear_with = k_with.failures_per_leaf[idx("cylinder_wear")] +
                           k_with.failures_per_leaf[idx("piston_rings")];
  const double wear_without = k_without.failures_per_leaf[idx("cylinder_wear")] +
                              k_without.failures_per_leaf[idx("piston_rings")];
  EXPECT_GT(wear_with, wear_without * 1.2);
}

TEST(Compressor, TimedRepairsAccountedInTrace) {
  // The wear-part repairs carry durations; they must appear as
  // started-then-completed pairs.
  const auto m = build_compressor(CompressorParameters::defaults(), current_plan());
  sim::Trace trace;
  sim::SimOptions opts;
  opts.horizon = 60.0;
  (void)sim_test::checked_run(m, 3, 3, opts, &trace);
  const auto started = sim_test::of_kind(trace, sim::TraceKind::RepairPerformed);
  const auto completed = sim_test::of_kind(trace, sim::TraceKind::RepairCompleted);
  EXPECT_LE(completed.size(), started.size());
}

}  // namespace
}  // namespace fmtree::compressor
