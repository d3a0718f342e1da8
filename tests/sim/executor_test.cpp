// Semantic tests of the FMT semantics. Deterministic phase durations make
// every event time exact, so assertions are sharp rather than statistical.
// Each run goes through the reference simulator (which records traces) and
// is checked bit for bit against the kernel.
#include <gtest/gtest.h>

#include "sim_testing.hpp"
#include "util/error.hpp"

namespace fmtree::sim {
namespace {

using fmt::CorrectivePolicy;
using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::InspectionModule;
using fmt::NodeId;
using fmt::RepairSpec;
using fmt::ReplacementModule;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// N deterministic phases of `unit` time each, threshold as given.
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

TEST(Executor, UnmaintainedDeterministicFailureTime) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 4));
  m.set_top(a);
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 3.0);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_DOUBLE_EQ(r.downtime, 7.0);  // no corrective: down to horizon
  EXPECT_FALSE(r.survived());
}

TEST(Executor, SurvivesWhenFailureBeyondHorizon) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 4, 5.0));  // fails at 15
  m.set_top(a);
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.first_failure_time, kInf);
  EXPECT_TRUE(r.survived());
  EXPECT_DOUBLE_EQ(r.downtime, 0.0);
}

TEST(Executor, InspectionRepairsAtThresholdForever) {
  // Phases at t=1 (->2), t=2 (->3, detectable), failure would be t=3.
  // Inspections every 2.5 catch phase 3 first (2.5, then the cycle repeats).
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 3), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(InspectionModule{"insp", 2.5, -1, 10, {a}});
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.inspections, 4u);  // t = 2.5, 5, 7.5, 10
  EXPECT_EQ(r.repairs, 4u);      // detected each time
  EXPECT_DOUBLE_EQ(r.cost.inspection, 40.0);
  EXPECT_DOUBLE_EQ(r.cost.repair, 400.0);
  ASSERT_EQ(r.repairs_per_leaf.size(), 1u);
  EXPECT_EQ(r.repairs_per_leaf[0], 4u);
}

TEST(Executor, InspectionBelowThresholdDoesNothing) {
  // Inspect at 1.5 when the leaf is in phase 2 < threshold 3: no repair,
  // and the leaf fails at 3.0 anyway.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 3), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(InspectionModule{"insp", 10.0, 1.5, 10, {a}});
  const TrajectoryResult r = run(m, 5.0);
  EXPECT_EQ(r.repairs, 0u);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 3.0);
}

TEST(Executor, InspectionCannotRepairFailedLeaf) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 2), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(InspectionModule{"insp", 3.0, -1, 10, {a}});  // first at 3 > 2
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.0);
  EXPECT_EQ(r.repairs, 0u);
  EXPECT_DOUBLE_EQ(r.downtime, 8.0);  // never restored
}

TEST(Executor, ReplacementRestoresFailedSystem) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 3));  // fails at 2, undetectable
  m.set_top(a);
  m.add_replacement(ReplacementModule{"renew", 3.0, -1, 500, {a}});
  const TrajectoryResult r = run(m, 10.0);
  // Fails at 2, renewed at 3 (downtime 1), fails again at 5, renewed at 6,
  // fails at 8, renewed at 9; the next failure (11) is beyond the horizon.
  EXPECT_EQ(r.failures, 3u);
  EXPECT_DOUBLE_EQ(r.downtime, 3.0);
  EXPECT_EQ(r.replacements, 3u);  // t = 3, 6, 9
  EXPECT_DOUBLE_EQ(r.cost.replacement, 1500.0);
}

TEST(Executor, CorrectiveRenewalCycle) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 3));
  m.set_top(a);
  m.set_corrective(CorrectivePolicy{true, 0.5, 1000, 100});
  const TrajectoryResult r = run(m, 10.0);
  // Failures at 2, 4.5, 7, 9.5; each renewed 0.5 later (last at 10.0).
  EXPECT_EQ(r.failures, 4u);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.0);
  EXPECT_DOUBLE_EQ(r.downtime, 2.0);
  EXPECT_DOUBLE_EQ(r.cost.corrective, 4000.0);
  EXPECT_DOUBLE_EQ(r.cost.downtime, 200.0);  // 100/yr * 2.0
}

TEST(Executor, CorrectiveWithZeroDelayGivesNoDowntime) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 2.0));
  m.set_top(a);
  m.set_corrective(CorrectivePolicy{true, 0.0, 1000, 100});
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_EQ(r.failures, 5u);  // at 2, 4, 6, 8, 10
  EXPECT_DOUBLE_EQ(r.downtime, 0.0);
  EXPECT_DOUBLE_EQ(r.cost.downtime, 0.0);
}

TEST(Executor, RdepEventTriggerAcceleratesRemainingTime) {
  // A fails at 1 (not failing the AND top); B's single 4-unit phase is then
  // accelerated x2: remaining 3 -> 1.5, so B (and the top) fail at 2.5.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 4.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_rdep("accel", a, {b}, 2.0);
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.5);
}

TEST(Executor, RdepPhaseTriggerActivatesMidDegradation) {
  // A reaches phase 2 at t=1, which accelerates B x2: B fails at
  // 1 + (4-1)/2 = 2.5. A itself fails at 3. Top = AND fails at 3.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 4));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 4.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_rdep("accel", a, {b}, 2.0, 2);
  Trace trace;
  const TrajectoryResult r = run(m, 10.0, &trace);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 3.0);
  const auto accel_events = sim_test::of_kind(trace, TraceKind::AccelerationChanged);
  ASSERT_GE(accel_events.size(), 1u);
  EXPECT_DOUBLE_EQ(accel_events[0].time, 1.0);
  EXPECT_EQ(accel_events[0].subject, "b");
  EXPECT_EQ(accel_events[0].detail, 2000);  // factor x1000
}

TEST(Executor, RdepDeactivatesWhenTriggerRepaired) {
  // A (2 phases of 1, threshold 2) reaches phase 2 at t=1 and accelerates B
  // (x2, phase trigger 2). The single inspection at t=1.5 repairs A, pausing
  // the acceleration until A degrades to phase 2 again at t=2.5 (and A's
  // failure at 3.5 keeps it active). B's 10-unit phase burns:
  //   [0,1] at x1 (1.0), [1,1.5] at x2 (1.0), [1.5,2.5] at x1 (1.0),
  //   then x2 with 7.0 left -> fires 3.5 later, at t=6.0.
  // A fails at 3.5, so the AND top fails when B does: t=6.0.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 2), RepairSpec{"fix", 1});
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 10.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_rdep("accel", a, {b}, 2.0, 2);
  m.add_inspection(InspectionModule{"insp", 100.0, 1.5, 1, {a}});
  const TrajectoryResult r = run(m, 20.0);
  EXPECT_EQ(r.repairs, 1u);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 6.0);
}

TEST(Executor, CauseAttributionInFailureLog) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("fast", det_phases(1, 2, 1.0));
  const NodeId b = m.add_ebe("slow", det_phases(1, 2, 5.0));
  m.set_top(m.add_or("top", {a, b}));
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  SimOptions opts;
  opts.horizon = 3.5;
  opts.record_failure_log = true;
  const TrajectoryResult r = sim_test::checked_run(m, 1, 0, opts);
  // Renewal cycle of 'fast': failures at 1, 2, 3 - all caused by leaf 0.
  ASSERT_EQ(r.failure_log.size(), 3u);
  for (const FailureRecord& f : r.failure_log) EXPECT_EQ(f.cause_leaf, 0u);
  EXPECT_EQ(r.failures_per_leaf[0], 3u);
  EXPECT_EQ(r.failures_per_leaf[1], 0u);
}

TEST(Executor, VotingGateFailsAtKthLeaf) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 1.0));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 2.0));
  const NodeId c = m.add_ebe("c", det_phases(1, 2, 3.0));
  m.set_top(m.add_voting("vote", 2, {a, b, c}));
  const TrajectoryResult r = run(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.0);  // second of three
}

TEST(Executor, TraceRecordsLifecycle) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 2), RepairSpec{"fix", 1});
  m.set_top(a);
  m.add_inspection(InspectionModule{"insp", 1.5, -1, 1, {a}});
  m.set_corrective(CorrectivePolicy{true, 0.25, 10, 0});
  Trace trace;
  (void)run(m, 4.0, &trace);
  EXPECT_FALSE(sim_test::of_kind(trace, TraceKind::PhaseTransition).empty());
  EXPECT_FALSE(sim_test::of_kind(trace, TraceKind::InspectionPerformed).empty());
  EXPECT_FALSE(sim_test::of_kind(trace, TraceKind::RepairPerformed).empty());
  // Times are nondecreasing.
  double prev = 0;
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(Executor, SameStreamSameResult) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(4, 8, 3),
                             RepairSpec{"fix", 100});
  const NodeId b =
      m.add_ebe("b", DegradationModel::basic(Distribution::weibull(1.5, 20)));
  m.set_top(m.add_or("top", {a, b}));
  m.add_inspection(InspectionModule{"insp", 0.5, -1, 10, {a}});
  m.set_corrective(CorrectivePolicy{true, 0.1, 1000, 100});
  const Reference reference(m);
  SimOptions opts;
  opts.horizon = 50.0;
  const TrajectoryResult r1 = reference.run(9, 7, opts);
  const TrajectoryResult r2 = reference.run(9, 7, opts);
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_DOUBLE_EQ(r1.first_failure_time, r2.first_failure_time);
  EXPECT_DOUBLE_EQ(r1.cost.total(), r2.cost.total());
  EXPECT_DOUBLE_EQ(r1.downtime, r2.downtime);
}

TEST(Executor, RejectsNonPositiveHorizon) {
  FaultMaintenanceTree m;
  m.set_top(m.add_ebe("a", det_phases(1, 2)));
  SimOptions opts;
  opts.horizon = 0.0;
  EXPECT_THROW(Reference(m).run(1, 0, opts), DomainError);
  EXPECT_THROW(sim_test::kernel_run(m, 1, 0, 1, opts), DomainError);
}

TEST(Executor, IdleRoundsKeepTheClockOrderOfTies) {
  // The leaf is detectable only at t = 4 and t = 8, where the yearly round
  // repairs it, so almost every round is idle and the kernel books most of
  // them in its fast-forward loop. The quarterly module ties with the
  // yearly one (a lower clock index: it goes first) and with the
  // half-yearly one (a higher index: the quarterly round goes first), and
  // all three fire at the horizon. The kernel must equal the reference bit
  // for bit, discounted cost sums included.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(2, 2, 4.0), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(InspectionModule{"yearly", 1.0, -1, 5, {a}});
  m.add_inspection(InspectionModule{"quarterly", 0.25, -1, 3, {a}});
  m.add_inspection(InspectionModule{"half-yearly", 0.5, -1, 2, {a}});
  SimOptions opts;
  opts.horizon = 10.0;
  opts.discount_rate = 0.05;
  const TrajectoryResult r = sim_test::checked_run(m, 1, 0, opts);
  EXPECT_EQ(r.inspections, 70u);  // 10 + 40 + 20, the last three at t = 10
  EXPECT_EQ(r.events, 72u);       // plus the phase steps at 4 and 8
  EXPECT_DOUBLE_EQ(r.cost.inspection, 10 * 5.0 + 40 * 3.0 + 20 * 2.0);
  EXPECT_EQ(r.repairs, 2u);
  EXPECT_EQ(r.failures, 0u);
}

/// Runs the kernel on `m` and expects the stall check to reject `module`.
void expect_stall_rejected(const FaultMaintenanceTree& m, const SimOptions& opts,
                           const std::string& module) {
  try {
    sim_test::kernel_run(m, 1, 0, 16, opts);
    ADD_FAILURE() << "expected a DomainError naming '" << module << "'";
  } catch (const DomainError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + module + "'"), std::string::npos)
        << e.what();
  }
}

TEST(Executor, RejectsInspectionPeriodThatCannotAdvanceTheClock) {
  // 1 + 1e-17 == 1: the rounds from t = 1 would refire at t = 1 forever.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 2), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(InspectionModule{"stuck", 1e-17, 1.0, 10, {a}});
  SimOptions opts;
  opts.horizon = 10.0;
  expect_stall_rejected(m, opts, "stuck");
  // The bound is inclusive: half an ulp of the horizon still rounds back.
  FaultMaintenanceTree half = m;
  half.set_inspection_schedule(0, 0x1p-53, 0.5);
  opts.horizon = 1.0;
  expect_stall_rejected(half, opts, "stuck");
  // Rounds that start after the horizon never run.
  opts.horizon = 0.75;
  EXPECT_EQ(sim_test::kernel_run(m, 1, 0, 1, opts).front().inspections, 0u);
}

TEST(Executor, RejectsReplacementPeriodThatCannotAdvanceTheClock) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(3, 2), RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_replacement(ReplacementModule{"stuck", 1e-17, 1.0, 50, {a}});
  SimOptions opts;
  opts.horizon = 10.0;
  expect_stall_rejected(m, opts, "stuck");
}

TEST(Executor, FailureExactlyAtHorizonCounts) {
  FaultMaintenanceTree m;
  m.set_top(m.add_ebe("a", det_phases(1, 2, 5.0)));
  const TrajectoryResult r = run(m, 5.0);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_FALSE(r.survived());
}

}  // namespace
}  // namespace fmtree::sim
