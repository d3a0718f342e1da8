// Tests for the formalism extensions: functional dependencies (FDEP) and
// imperfect inspections.
#include <gtest/gtest.h>

#include <cmath>
#include "analytic/fmt2ctmc.hpp"
#include "fmt/parser.hpp"
#include "../sim/sim_testing.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::fmt {
namespace {

DegradationModel det_phases(int n, int threshold, double unit = 1.0) {
  std::vector<Distribution> phases(static_cast<std::size_t>(n),
                                   Distribution::deterministic(unit));
  return DegradationModel(std::move(phases), threshold);
}

sim::TrajectoryResult run_one(const FaultMaintenanceTree& m, double horizon,
                              sim::Trace* trace = nullptr) {
  sim::SimOptions opts;
  opts.horizon = horizon;
  return sim_test::checked_run(m, 1, 0, opts, trace);
}

// ---- FDEP model validation ----------------------------------------------------

TEST(Fdep, Validation) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 100.0));
  m.set_top(m.add_or("top", {a, b}));
  EXPECT_THROW(m.add_fdep("f", a, {}), ModelError);
  EXPECT_THROW(m.add_fdep("f", a, {a}), ModelError);
  EXPECT_THROW(m.add_fdep("f", a, {m.top()}), ModelError);
  EXPECT_NO_THROW(m.add_fdep("f", a, {b}));
  EXPECT_EQ(m.fdeps().size(), 1u);
}

TEST(Fdep, MarkovianWithFdep) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_basic_event("a", Distribution::exponential(1));
  const NodeId b = m.add_basic_event("b", Distribution::exponential(1));
  m.set_top(m.add_and("top", {a, b}));
  m.add_fdep("f", a, {b});
  EXPECT_TRUE(m.is_markovian());
}

// ---- FDEP semantics (deterministic) ---------------------------------------------

TEST(Fdep, TriggerFailureCascadesInstantly) {
  // a fails at 2; FDEP forces b (would live 100) to fail at 2 too; the AND
  // top therefore fails at 2, not at 100.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 2.0));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 100.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_fdep("f", a, {b});
  const sim::TrajectoryResult r = run_one(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.0);
}

TEST(Fdep, ChainedCascadeReachesFixpoint) {
  // a -> b -> c chained FDEPs: a fails at 1, so b and then c fail at 1.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 1.0));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 50.0));
  const NodeId c = m.add_ebe("c", det_phases(1, 2, 50.0));
  m.set_top(m.add_and("top", {b, c}));
  m.add_fdep("f1", a, {b});
  m.add_fdep("f2", b, {c});
  sim::Trace trace;
  const sim::TrajectoryResult r = run_one(m, 10.0, &trace);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 1.0);
  // All three leaf failures happen at t = 1.
  const auto failures = sim_test::of_kind(trace, sim::TraceKind::LeafFailed);
  ASSERT_EQ(failures.size(), 3u);
  for (const auto& e : failures) EXPECT_DOUBLE_EQ(e.time, 1.0);
}

TEST(Fdep, GateTriggerSupported) {
  // Trigger is an AND gate: dependents fail only when both a1, a2 failed.
  FaultMaintenanceTree m;
  const NodeId a1 = m.add_ebe("a1", det_phases(1, 2, 1.0));
  const NodeId a2 = m.add_ebe("a2", det_phases(1, 2, 3.0));
  const NodeId g = m.add_and("g", {a1, a2});
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 100.0));
  m.set_top(m.add_or("top", {g, b}));
  m.add_fdep("f", g, {b});
  const sim::TrajectoryResult r = run_one(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 3.0);  // when g fires
}

TEST(Fdep, RenewalRefailsWhileTriggerHolds) {
  // a fails at 2 and forces b down. The replacement module renews only b at
  // t=3; since a is still failed, b re-fails instantly, so the AND top never
  // recovers. Without re-failure the top would flip false at 3.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 2.0));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 100.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_fdep("f", a, {b});
  m.add_replacement(ReplacementModule{"renew_b", 3.0, -1, 10, {b}});
  const sim::TrajectoryResult r = run_one(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 2.0);
  EXPECT_DOUBLE_EQ(r.downtime, 8.0);  // never restored
}

TEST(Fdep, CorrectiveRenewalOfEverythingClearsCascade) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", det_phases(1, 2, 2.0));
  const NodeId b = m.add_ebe("b", det_phases(1, 2, 100.0));
  m.set_top(m.add_and("top", {a, b}));
  m.add_fdep("f", a, {b});
  m.set_corrective(CorrectivePolicy{true, 0.5, 100, 0});
  const sim::TrajectoryResult r = run_one(m, 10.0);
  // Failure at 2, full renewal at 2.5, next failure at 4.5, ... -> 4 failures.
  EXPECT_EQ(r.failures, 4u);
  EXPECT_DOUBLE_EQ(r.downtime, 2.0);
}

// ---- FDEP exactness (CTMC vs closed form / simulation) ---------------------------

TEST(Fdep, CtmcMatchesClosedForm) {
  // AND(a, b) with FDEP a->b: the system fails exactly when a does, so
  // unreliability = exponential CDF of a.
  FaultMaintenanceTree m;
  const NodeId a = m.add_basic_event("a", Distribution::exponential(0.4));
  const NodeId b = m.add_basic_event("b", Distribution::exponential(0.05));
  m.set_top(m.add_and("top", {a, b}));
  m.add_fdep("f", a, {b});
  for (double t : {0.5, 2.0, 6.0}) {
    // Failure occurs when a fails (cascade) or when b fails first and then a.
    // Either way the top needs a to have failed AND b (forced) -> top = a's
    // failure OR (b then a). Since b's own failure also only completes with
    // a, top == "a failed" exactly.
    EXPECT_NEAR(analytic::exact_unreliability(m, t), 1 - std::exp(-0.4 * t), 1e-9)
        << t;
  }
}

TEST(Fdep, CtmcMatchesSimulation) {
  FaultMaintenanceTree m;
  const NodeId t1 = m.add_ebe("t1", DegradationModel::erlang(2, 3.0, 3));
  const NodeId d1 = m.add_ebe("d1", DegradationModel::erlang(3, 8.0, 4));
  const NodeId d2 = m.add_ebe("d2", DegradationModel::erlang(2, 6.0, 3));
  m.set_top(m.add_voting("top", 2, {t1, d1, d2}));
  m.add_fdep("f", t1, {d1});
  const double horizon = 4.0;
  const double exact = analytic::exact_unreliability(m, horizon);
  smc::AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = 60000;
  s.seed = 12;
  const smc::KpiReport k = smc::analyze(m, s);
  EXPECT_TRUE(k.reliability.contains(1 - exact))
      << "exact=" << exact << " sim=" << 1 - k.reliability.point;
}

// ---- Imperfect inspections --------------------------------------------------------

TEST(ImperfectInspections, DetectionProbabilityValidated) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 5, 2));
  m.set_top(a);
  InspectionModule bad{"i", 1.0, -1, 0, {a}, 0.0};
  EXPECT_THROW(m.add_inspection(bad), ModelError);
  bad.detection_probability = 1.5;
  EXPECT_THROW(m.add_inspection(bad), ModelError);
  bad.detection_probability = 0.5;
  EXPECT_NO_THROW(m.add_inspection(bad));
}

TEST(ImperfectInspections, DetectionOneIsDeterministic) {
  // With p = 1 no random draw happens for inspections, so the result equals
  // the default-constructed module's.
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2, 2),
                             RepairSpec{"fix", 1});
  m.set_top(a);
  m.add_inspection(InspectionModule{"i", 0.5, -1, 1, {a}, 1.0});
  const sim::TrajectoryResult r1 = run_one(m, 20.0);
  const sim::TrajectoryResult r2 = run_one(m, 20.0);
  EXPECT_EQ(r1.repairs, r2.repairs);
  EXPECT_EQ(r1.failures, r2.failures);
}

TEST(ImperfectInspections, FailureRateInterpolatesBetweenExtremes) {
  auto build = [](double detect) {
    FaultMaintenanceTree m;
    const NodeId a = m.add_ebe("a", DegradationModel::erlang(4, 3.0, 2),
                               RepairSpec{"fix", 10});
    m.set_top(a);
    if (detect > 0)
      m.add_inspection(InspectionModule{"i", 0.25, -1, 1, {a}, detect});
    m.set_corrective(CorrectivePolicy{true, 0.0, 100, 0});
    return m;
  };
  smc::AnalysisSettings s;
  s.horizon = 30.0;
  s.trajectories = 20000;
  s.seed = 8;
  const double none = smc::analyze(build(0.0), s).failures_per_year.point;
  const double half = smc::analyze(build(0.5), s).failures_per_year.point;
  const double full = smc::analyze(build(1.0), s).failures_per_year.point;
  EXPECT_LT(full, half);
  EXPECT_LT(half, none);
  // Sanity magnitudes: full detection nearly eliminates this mode.
  EXPECT_LT(full, 0.2 * none);
}

// ---- Text format round-trips -------------------------------------------------------

TEST(ExtensionsParser, FdepAndDetectRoundTrip) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T;
    T and A B;
    A ebe phases=2 mean=3 threshold=2;
    B ebe phases=3 mean=9 threshold=2;
    fdep Kill trigger=A targets B;
    inspection Fuzzy period=0.5 cost=5 detect=0.8 targets A B;
  )");
  ASSERT_EQ(m.fdeps().size(), 1u);
  EXPECT_EQ(m.name(m.fdeps()[0].trigger), "A");
  ASSERT_EQ(m.inspections().size(), 1u);
  EXPECT_DOUBLE_EQ(m.inspections()[0].detection_probability, 0.8);

  const FaultMaintenanceTree m2 = parse_fmt(to_text(m));
  ASSERT_EQ(m2.fdeps().size(), 1u);
  EXPECT_DOUBLE_EQ(m2.inspections()[0].detection_probability, 0.8);
}

TEST(ExtensionsParser, RejectsBadFdepAndDetect) {
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A be exp(1); fdep F targets A;"),
               ParseError);  // no trigger
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A be exp(1); fdep F trigger=A;"),
               ParseError);  // no targets
  EXPECT_THROW(parse_fmt(R"(
    toplevel T; T or A; A ebe phases=2 mean=3 threshold=2;
    inspection I period=1 detect=0 targets A;
  )"),
               ParseError);  // detect out of range
  EXPECT_THROW(parse_fmt(R"(
    toplevel T; T or A; A ebe phases=2 mean=3 threshold=2;
    replacement R period=1 detect=0.5 targets A;
  )"),
               ParseError);  // detect not valid on replacements
}

}  // namespace
}  // namespace fmtree::fmt
