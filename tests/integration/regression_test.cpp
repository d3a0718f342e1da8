// Golden-value regression tests: the exact KPI numbers for fixed seeds.
//
// Any change to the kernel's event ordering, the RNG consumption pattern,
// or the aggregation order shows up here as a bit-level difference. These
// are intentional tripwires: if a change to the kernel is *supposed* to
// alter trajectories (new semantics), update the constants and say so in
// the commit; if not, the change just introduced a bug.
#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "../sim/sim_testing.hpp"
#include "compressor/compressor.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "smc/kpi.hpp"

namespace fmtree {
namespace {

smc::AnalysisSettings golden_settings() {
  smc::AnalysisSettings s;
  s.horizon = 20.0;
  s.trajectories = 4000;
  s.seed = 777;
  s.threads = 2;  // thread count must not matter; pinned anyway
  return s;
}

TEST(GoldenValues, EiJointCurrentPolicy) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const smc::KpiReport k = smc::analyze(model, golden_settings());
  EXPECT_DOUBLE_EQ(k.reliability.point, 0.50724999999999998);
  EXPECT_DOUBLE_EQ(k.expected_failures.point, 0.67025000000000157);
  EXPECT_DOUBLE_EQ(k.total_cost.point, 27387.987861987156);
  EXPECT_DOUBLE_EQ(k.availability.point, 0.99933022463801324);
}

TEST(GoldenValues, CompressorCurrentPlan) {
  const auto model = compressor::build_compressor(
      compressor::CompressorParameters::defaults(), compressor::current_plan());
  const smc::KpiReport k = smc::analyze(model, golden_settings());
  EXPECT_DOUBLE_EQ(k.reliability.point, 0.087249999999999994);
  EXPECT_DOUBLE_EQ(k.expected_failures.point, 2.35175);
  EXPECT_DOUBLE_EQ(k.total_cost.point, 127242.0333062682);
}

TEST(GoldenValues, SingleTrajectoryTrace) {
  // One fully pinned kernel trajectory of the EI-joint: seed 777, index 106,
  // five failures from two causes over 40 years, discounted at 3%. The
  // reference simulator must land on the very same bits.
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  sim::SimOptions opts;
  opts.horizon = 40.0;
  opts.record_failure_log = true;
  opts.discount_rate = 0.03;
  const sim::TrajectoryResult r = sim_test::kernel_run(model, 777, 106, 1, opts).front();
  EXPECT_EQ(r.failures, 5u);
  EXPECT_EQ(r.first_failure_time, 0x1.8ed8cedf3148p+2);
  EXPECT_EQ(r.downtime, 0x1.9999999999ap-4);
  EXPECT_EQ(r.events, 255u);
  EXPECT_EQ(r.inspections, 160u);
  EXPECT_EQ(r.repairs, 54u);
  EXPECT_EQ(r.replacements, 0u);
  EXPECT_EQ(r.cost.inspection, 0x1.5ep+12);
  EXPECT_EQ(r.cost.repair, 0x1.eaap+14);
  EXPECT_EQ(r.cost.corrective, 0x1.388p+15);
  EXPECT_EQ(r.cost.downtime, 0x1.388000000004ep+12);
  EXPECT_EQ(r.discounted_cost.inspection, 0x1.961c27d60f47cp+11);
  EXPECT_EQ(r.discounted_cost.repair, 0x1.25618c9042078p+14);
  EXPECT_EQ(r.discounted_cost.corrective, 0x1.56b334b7ed4bcp+14);
  EXPECT_EQ(r.discounted_cost.downtime, 0x1.5698e44f27979p+11);
  EXPECT_EQ(r.repairs_per_leaf,
            (std::vector<std::uint64_t>{3, 28, 0, 0, 1, 1, 1, 0, 2, 1, 17}));
  EXPECT_EQ(r.failures_per_leaf,
            (std::vector<std::uint64_t>{0, 2, 0, 3, 0, 0, 0, 0, 0, 0, 0}));
  const std::pair<double, std::uint32_t> log[] = {
      {0x1.8ed8cedf3148p+2, 1},  {0x1.cd87997aca8a4p+3, 1}, {0x1.55346c9d3099bp+4, 3},
      {0x1.f5127d947f4ecp+4, 3}, {0x1.1bb2a15f5e792p+5, 3}};
  ASSERT_EQ(r.failure_log.size(), std::size(log));
  for (std::size_t i = 0; i < r.failure_log.size(); ++i) {
    EXPECT_EQ(r.failure_log[i].time, log[i].first) << i;
    EXPECT_EQ(r.failure_log[i].cause_leaf, log[i].second) << i;
  }
  EXPECT_TRUE(sim_test::bit_identical(r, sim::Reference(model).run(777, 106, opts)));
}

}  // namespace
}  // namespace fmtree
