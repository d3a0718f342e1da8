// Semantics of timed (non-instantaneous) condition-based repairs.
#include <gtest/gtest.h>

#include "fmt/parser.hpp"
#include "sim_testing.hpp"
#include "util/error.hpp"

namespace fmtree::sim {
namespace {

using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::InspectionModule;
using fmt::NodeId;
using fmt::RepairSpec;

DegradationModel det_phases(int n, int threshold, double unit = 1.0) {
  std::vector<Distribution> phases(static_cast<std::size_t>(n),
                                   Distribution::deterministic(unit));
  return DegradationModel(std::move(phases), threshold);
}

TrajectoryResult run(const FaultMaintenanceTree& m, double horizon,
                     Trace* trace = nullptr) {
  SimOptions opts;
  opts.horizon = horizon;
  return sim_test::checked_run(m, 1, 0, opts, trace);
}

TEST(TimedRepair, DegradationPausedDuringRepair) {
  // Leaf: 3 unit phases, threshold 2 (reached at t=1), would fail at 3.
  // Inspection at 1.5 starts a repair lasting 4; during [1.5, 5.5] the leaf
  // cannot progress, so no failure. Completion resets to phase 1; the next
  // threshold crossing is at 6.5, inspected at... inspections every 10 from
  // 1.5: next at 11.5 -> leaf fails at 5.5 + 3 = 8.5.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 2), RepairSpec{"fix", 100, 4.0});
  m.set_top(a);
  m.add_inspection(InspectionModule{"i", 10.0, 1.5, 1, {a}});
  Trace trace;
  const TrajectoryResult r = run(m, 20.0, &trace);
  EXPECT_EQ(r.repairs, 1u);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 8.5);
  const auto done = sim_test::of_kind(trace, TraceKind::RepairCompleted);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].time, 5.5);
}

TEST(TimedRepair, InspectionSkipsLeafUnderRepair) {
  // Repairs last 2.0; inspections every 0.5. Phase 2 is entered at t=1.0 and
  // the same-time inspection (phase events order before it) detects it, so a
  // repair runs over [1, 3]; the six inspections during it must not start a
  // second one. The cycle then repeats every 3 units: repairs start at 1, 4,
  // 7, 10 and no failure ever happens.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 2), RepairSpec{"fix", 100, 2.0});
  m.set_top(a);
  m.add_inspection(InspectionModule{"i", 0.5, -1, 1, {a}});
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_EQ(r.repairs, 4u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_DOUBLE_EQ(r.cost.repair, 400.0);
}

TEST(TimedRepair, ReplacementPreemptsRepair) {
  // Repair starts at 1.5 and would complete at 7.5, but the replacement at
  // t=3 renews the leaf: the repair is cancelled (no RepairCompleted) and
  // the leaf restarts from new at 3.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 2), RepairSpec{"fix", 100, 6.0});
  m.set_top(a);
  m.add_inspection(InspectionModule{"i", 100.0, 1.5, 1, {a}});
  m.add_replacement(fmt::ReplacementModule{"renew", 100.0, 3.0, 10, {a}});
  Trace trace;
  const TrajectoryResult r = run(m, 10.0, &trace);
  EXPECT_EQ(sim_test::of_kind(trace, TraceKind::RepairCompleted).size(), 0u);
  EXPECT_EQ(r.replacements, 1u);
  // Renewed at 3: phases at 4, 5, fails at 6.
  EXPECT_DOUBLE_EQ(r.first_failure_time, 6.0);
}

TEST(TimedRepair, LeafCannotFailWhileUnderRepair) {
  // Degradation nearly complete (phase 3 of 3) when repair starts; without
  // the pause it would fail 0.5 later, but the repair wins.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 3), RepairSpec{"fix", 100, 1.0});
  m.set_top(a);
  m.add_inspection(InspectionModule{"i", 100.0, 2.5, 1, {a}});  // phase 3 since t=2
  const TrajectoryResult r = run(m, 20.0);
  // Repair 2.5 -> 3.5; then fresh cycle fails at 3.5 + 3 = 6.5.
  EXPECT_DOUBLE_EQ(r.first_failure_time, 6.5);
}

TEST(TimedRepair, ParserRoundTripsRepairTime) {
  const FaultMaintenanceTree m = fmt::parse_fmt(R"(
    toplevel T;
    T or A;
    A ebe phases=3 mean=6 threshold=2 repair_cost=50 repair_time=0.2 repair=grind;
  )");
  EXPECT_DOUBLE_EQ(m.ebe(*m.find("A")).repair.duration, 0.2);
  const FaultMaintenanceTree m2 = fmt::parse_fmt(fmt::to_text(m));
  EXPECT_DOUBLE_EQ(m2.ebe(*m2.find("A")).repair.duration, 0.2);
  EXPECT_THROW(fmt::parse_fmt(R"(
    toplevel T; T or A; A ebe phases=2 mean=3 repair_time=-1;
  )"),
               ParseError);
}

TEST(TimedRepair, ZeroDurationEqualsInstantSemantics) {
  // duration = 0 must behave exactly like the original instantaneous path.
  auto build = [](double duration) {
    FaultMaintenanceTree m;
    const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2.0, 2),
                               RepairSpec{"fix", 10, duration});
    m.set_top(a);
    m.add_inspection(InspectionModule{"i", 0.25, -1, 1, {a}});
    m.set_corrective(fmt::CorrectivePolicy{true, 0.0, 100, 0});
    return m;
  };
  const FaultMaintenanceTree m0 = build(0.0);
  const FaultMaintenanceTree m0b = build(0.0);
  SimOptions opts;
  opts.horizon = 50.0;
  const TrajectoryResult a = sim_test::checked_run(m0, 3, 1, opts);
  const TrajectoryResult b = sim_test::checked_run(m0b, 3, 1, opts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
}

}  // namespace
}  // namespace fmtree::sim
