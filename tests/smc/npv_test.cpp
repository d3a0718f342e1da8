// Net-present-value (discounted) cost accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "../sim/sim_testing.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::NodeId;

DegradationModel det_phases(int n, int threshold, double unit = 1.0) {
  std::vector<Distribution> phases(static_cast<std::size_t>(n),
                                   Distribution::deterministic(unit));
  return DegradationModel(std::move(phases), threshold);
}

TEST(Npv, DeterministicEventsDiscountExactly) {
  // Inspections at t = 1, 2, 3 costing 100 each; discount rate 0.1:
  // NPV = 100 (e^-0.1 + e^-0.2 + e^-0.3).
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 2, 100.0), fmt::RepairSpec{"fix", 0});
  m.set_top(a);
  m.add_inspection(fmt::InspectionModule{"i", 1.0, -1, 100.0, {a}});
  sim::SimOptions opts;
  opts.horizon = 3.5;
  opts.discount_rate = 0.1;
  const sim::TrajectoryResult r = sim_test::checked_run(m, 1, 0, opts);
  const double expected =
      100 * (std::exp(-0.1) + std::exp(-0.2) + std::exp(-0.3));
  EXPECT_NEAR(r.discounted_cost.inspection, expected, 1e-10);
  EXPECT_DOUBLE_EQ(r.cost.inspection, 300.0);
}

TEST(Npv, DowntimeIntegralDiscounted) {
  // Leaf fails at 1, corrective completes at 2 (downtime [1,2]), rate 50/yr,
  // discount 0.2: NPV = 50 (e^-0.2 - e^-0.4)/0.2.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 1.0));
  m.set_top(a);
  m.set_corrective(fmt::CorrectivePolicy{true, 1.0, 1000.0, 50.0});
  sim::SimOptions opts;
  opts.horizon = 1.5;  // downtime clamped at horizon: [1, 1.5]
  opts.discount_rate = 0.2;
  const sim::TrajectoryResult r = sim_test::checked_run(m, 1, 0, opts);
  const double expected = 50.0 * (std::exp(-0.2) - std::exp(-0.3)) / 0.2;
  EXPECT_NEAR(r.discounted_cost.downtime, expected, 1e-10);
  // Failure cost of 1000 at t = 1 discounts to 1000 e^-0.2.
  EXPECT_NEAR(r.discounted_cost.corrective, 1000 * std::exp(-0.2), 1e-10);
}

TEST(Npv, ZeroRateEqualsUndiscounted) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2.0, 2),
                             fmt::RepairSpec{"fix", 10});
  m.set_top(a);
  m.add_inspection(fmt::InspectionModule{"i", 0.25, -1, 5, {a}});
  m.set_corrective(fmt::CorrectivePolicy{true, 0.1, 500, 20});
  sim::SimOptions opts;
  opts.horizon = 30.0;
  opts.discount_rate = 0.0;
  const sim::TrajectoryResult r = sim_test::checked_run(m, 8, 2, opts);
  EXPECT_DOUBLE_EQ(r.discounted_cost.total(), r.cost.total());
}

TEST(Npv, NegativeRateRejected) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(1)));
  sim::SimOptions opts;
  opts.horizon = 1.0;
  opts.discount_rate = -0.1;
  EXPECT_THROW(sim::Reference(m).run(1, 0, opts), DomainError);
  EXPECT_THROW(sim_test::kernel_run(m, 1, 0, 1, opts), DomainError);
}

TEST(Npv, KpiReportExposesNpv) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2.0, 2),
                             fmt::RepairSpec{"fix", 10});
  m.set_top(a);
  m.add_inspection(fmt::InspectionModule{"i", 0.25, -1, 5, {a}});
  m.set_corrective(fmt::CorrectivePolicy{true, 0.0, 500, 0});

  AnalysisSettings s;
  s.horizon = 20;
  s.trajectories = 3000;
  s.seed = 2;
  s.discount_rate = 0.05;
  const KpiReport k = analyze(m, s);
  // Discounting strictly reduces cost, but not below e^{-r h} of it.
  EXPECT_LT(k.npv_cost.point, k.total_cost.point);
  EXPECT_GT(k.npv_cost.point, k.total_cost.point * std::exp(-0.05 * 20));

  s.discount_rate = 0.0;
  const KpiReport k0 = analyze(m, s);
  EXPECT_DOUBLE_EQ(k0.npv_cost.point, k0.total_cost.point);
}

}  // namespace
}  // namespace fmtree::smc
