#include <gtest/gtest.h>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "ft/cutsets.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::eijoint {
namespace {

fmt::FaultMaintenanceTree current_model() {
  return build_ei_joint(EiJointParameters::defaults(), current_policy());
}

TEST(EiJointModel, StructureMatchesTaxonomy) {
  const fmt::FaultMaintenanceTree m = current_model();
  EXPECT_NO_THROW(m.validate());
  // 4 electrical + 4 bolts + fishplate + glue + batter = 11 leaves.
  EXPECT_EQ(m.num_ebes(), 11u);
  EXPECT_TRUE(m.find("lipping").has_value());
  EXPECT_TRUE(m.find("contamination").has_value());
  EXPECT_TRUE(m.find("endpost_wear").has_value());
  EXPECT_TRUE(m.find("impact_damage").has_value());
  EXPECT_TRUE(m.find("bolt_1").has_value());
  EXPECT_TRUE(m.find("bolt_4").has_value());
  EXPECT_TRUE(m.find("fishplate_crack").has_value());
  EXPECT_TRUE(m.find("glue_degradation").has_value());
  EXPECT_TRUE(m.find("joint_batter").has_value());
  EXPECT_EQ(m.name(m.top()), "ei_joint_failure");
  // Bolt voting gate is 2/4.
  const ft::Gate& bolts = m.structure().gate(*m.find("bolt_group"));
  EXPECT_EQ(bolts.type, ft::GateType::Voting);
  EXPECT_EQ(bolts.k, 2);
  EXPECT_EQ(bolts.children.size(), 4u);
}

TEST(EiJointModel, RdepsConfigured) {
  const fmt::FaultMaintenanceTree m = current_model();
  ASSERT_EQ(m.rdeps().size(), 2u);
  for (const fmt::RateDependency& r : m.rdeps()) {
    EXPECT_EQ(m.name(r.trigger), "joint_batter");
    EXPECT_EQ(r.trigger_phase, 3);
    EXPECT_GE(r.factor, 1.0);
  }
  EiJointParameters p = EiJointParameters::defaults();
  p.enable_rdep = false;
  EXPECT_TRUE(build_ei_joint(p, current_policy()).rdeps().empty());
}

TEST(EiJointModel, CurrentPolicyModules) {
  const fmt::FaultMaintenanceTree m = current_model();
  ASSERT_EQ(m.inspections().size(), 1u);
  EXPECT_DOUBLE_EQ(m.inspections()[0].period, 0.25);
  // Inspection covers every inspectable leaf (all but impact_damage).
  EXPECT_EQ(m.inspections()[0].targets.size(), 10u);
  EXPECT_TRUE(m.replacements().empty());
  EXPECT_TRUE(m.corrective().enabled);
}

TEST(EiJointModel, ImpactDamageIsUndetectable) {
  const fmt::FaultMaintenanceTree m = current_model();
  EXPECT_FALSE(m.ebe(*m.find("impact_damage")).degradation.inspectable());
}

TEST(EiJointModel, MinimalCutSetsAreSingletonsAndBoltPairs) {
  const fmt::FaultMaintenanceTree m = current_model();
  const auto cuts = ft::minimal_cut_sets(m.structure());
  // 7 singleton modes + C(4,2)=6 bolt pairs.
  EXPECT_EQ(cuts.size(), 13u);
  std::size_t singletons = 0, pairs = 0;
  for (const auto& c : cuts) {
    if (c.size() == 1) ++singletons;
    if (c.size() == 2) ++pairs;
  }
  EXPECT_EQ(singletons, 7u);
  EXPECT_EQ(pairs, 6u);
}

TEST(EiJointModel, ParameterValidation) {
  EiJointParameters p = EiJointParameters::defaults();
  p.bolt_vote = 5;  // > num_bolts
  EXPECT_THROW(build_ei_joint(p, current_policy()), ModelError);
}

TEST(EiJointModel, FactoryAppliesPolicy) {
  const EiJointParameters params = EiJointParameters::defaults();
  const fmt::FaultMaintenanceTree none = build_ei_joint(params, corrective_only());
  EXPECT_TRUE(none.inspections().empty());
  const fmt::FaultMaintenanceTree monthly =
      build_ei_joint(params, inspections_per_year(12));
  ASSERT_EQ(monthly.inspections().size(), 1u);
  EXPECT_NEAR(monthly.inspections()[0].period, 1.0 / 12, 1e-12);
  const fmt::FaultMaintenanceTree renewed = build_ei_joint(params, with_renewal(15));
  ASSERT_EQ(renewed.replacements().size(), 1u);
  EXPECT_DOUBLE_EQ(renewed.replacements()[0].period, 15.0);
}

TEST(EiJointModel, AllModesCauseFailuresWithoutMaintenance) {
  // Long-horizon corrective-only run: every mode should eventually be a
  // proximate cause (bolt votes make individual bolts rarer but present).
  const fmt::FaultMaintenanceTree m =
      build_ei_joint(EiJointParameters::defaults(), corrective_only());
  smc::AnalysisSettings s;
  s.horizon = 60;
  s.trajectories = 3000;
  s.seed = 21;
  const smc::KpiReport k = smc::analyze(m, s);
  double total = 0;
  for (double f : k.failures_per_leaf) total += f;
  EXPECT_GT(total, 0);
  // Dominant causes: contamination (fastest mean) then lipping/batter.
  const auto idx = [&](const char* name) {
    return m.ebe_index(*m.find(name));
  };
  EXPECT_GT(k.failures_per_leaf[idx("contamination")],
            k.failures_per_leaf[idx("glue_degradation")]);
  EXPECT_GT(k.failures_per_leaf[idx("contamination")], 0.5 * total);
}

TEST(EiJointModel, CurrentPolicyKpisInPlausibleRange) {
  const fmt::FaultMaintenanceTree m = current_model();
  smc::AnalysisSettings s;
  s.horizon = 20;
  s.trajectories = 4000;
  s.seed = 23;
  const smc::KpiReport k = smc::analyze(m, s);
  // Synthetic calibration target: a few failures per hundred joint-years.
  EXPECT_GT(k.failures_per_year.point, 0.005);
  EXPECT_LT(k.failures_per_year.point, 0.15);
  EXPECT_GT(k.availability.point, 0.995);
  EXPECT_GT(k.cost_per_year.point, 100.0);
  EXPECT_LT(k.cost_per_year.point, 10000.0);
}

}  // namespace
}  // namespace fmtree::eijoint
