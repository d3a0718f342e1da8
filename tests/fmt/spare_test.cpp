// SPARE gates: warm/cold standby pools with dormancy-scaled degradation.
#include <gtest/gtest.h>

#include <cmath>

#include "analytic/fmt2ctmc.hpp"
#include "analytic/solvers.hpp"
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

sim::TrajectoryResult run_one(const FaultMaintenanceTree& m, double horizon) {
  sim::SimOptions opts;
  opts.horizon = horizon;
  return sim_test::checked_run(m, 1, 0, opts);
}

// ---- Validation --------------------------------------------------------------

TEST(Spare, Validation) {
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", det_phases(1, 2, 2.0));
  const NodeId s = m.add_ebe("s", det_phases(1, 2, 4.0));
  const NodeId q = m.add_ebe("q", det_phases(1, 2, 4.0));
  EXPECT_THROW(m.add_spare("sp", {p}, 0.5), ModelError);        // one child
  EXPECT_THROW(m.add_spare("sp", {p, s}, -0.1), ModelError);    // dormancy
  EXPECT_THROW(m.add_spare("sp", {p, s}, 1.5), ModelError);
  const NodeId gate = m.add_spare("sp", {p, s}, 0.5);
  EXPECT_THROW(m.add_spare("sp2", {s, q}, 0.5), ModelError);    // s reused
  m.set_top(gate);
  // Gate is an AND in the boolean structure.
  EXPECT_EQ(m.structure().gate(gate).type, ft::GateType::And);
  EXPECT_THROW(m.add_spare("sp3", {gate, q}, 0.5), ModelError); // non-leaf child
}

// ---- Deterministic semantics ---------------------------------------------------

TEST(Spare, ColdSpareDoesNotAgeUntilActivated) {
  // Primary lives 2; cold spare has a 4-unit lifetime that only starts
  // ticking at t=2 -> pool exhausted at 6.
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", det_phases(1, 2, 2.0));
  const NodeId s = m.add_ebe("s", det_phases(1, 2, 4.0));
  m.set_top(m.add_spare("pool", {p, s}, 0.0));
  const sim::TrajectoryResult r = run_one(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 6.0);
}

TEST(Spare, WarmSpareAgesAtDormancyRate) {
  // Dormancy 0.5: by t=2 the spare has burned 1 of its 4 natural units;
  // activated at 2, it fails 3 later -> top at 5.
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", det_phases(1, 2, 2.0));
  const NodeId s = m.add_ebe("s", det_phases(1, 2, 4.0));
  m.set_top(m.add_spare("pool", {p, s}, 0.5));
  const sim::TrajectoryResult r = run_one(m, 10.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 5.0);
}

TEST(Spare, HotSpareEqualsPlainAnd) {
  FaultMaintenanceTree spare_model;
  {
    const NodeId p = spare_model.add_ebe("p", det_phases(1, 2, 2.0));
    const NodeId s = spare_model.add_ebe("s", det_phases(1, 2, 4.0));
    spare_model.set_top(spare_model.add_spare("pool", {p, s}, 1.0));
  }
  FaultMaintenanceTree and_model;
  {
    const NodeId p = and_model.add_ebe("p", det_phases(1, 2, 2.0));
    const NodeId s = and_model.add_ebe("s", det_phases(1, 2, 4.0));
    and_model.set_top(and_model.add_and("pool", {p, s}));
  }
  EXPECT_DOUBLE_EQ(run_one(spare_model, 10.0).first_failure_time,
                   run_one(and_model, 10.0).first_failure_time);
}

TEST(Spare, TwoSparesActivateInOrder) {
  // Primary 2, spares of 4 each, cold: failures at 2, 6; pool dead at 10.
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", det_phases(1, 2, 2.0));
  const NodeId s1 = m.add_ebe("s1", det_phases(1, 2, 4.0));
  const NodeId s2 = m.add_ebe("s2", det_phases(1, 2, 4.0));
  m.set_top(m.add_spare("pool", {p, s1, s2}, 0.0));
  const sim::TrajectoryResult r = run_one(m, 12.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 10.0);
}

TEST(Spare, RenewedPrimaryTakesBackActiveRole) {
  // Cold spare; primary fails at 2, spare activates. The replacement module
  // renews the primary at t=3: the primary is active again, the spare
  // (with 3 natural units left) goes back to dormant and freezes. The
  // renewed primary fails at 5; the spare then burns its remaining 3 -> 8.
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", det_phases(1, 2, 2.0));
  const NodeId s = m.add_ebe("s", det_phases(1, 2, 4.0));
  m.set_top(m.add_spare("pool", {p, s}, 0.0));
  m.add_replacement(ReplacementModule{"renew_p", 100.0, 3.0, 10, {p}});
  const sim::TrajectoryResult r = run_one(m, 12.0);
  EXPECT_DOUBLE_EQ(r.first_failure_time, 8.0);
}

// ---- Exactness ------------------------------------------------------------------

TEST(Spare, ColdStandbyOfExponentialsIsErlang) {
  // Cold standby of two exp(r) units: total lifetime = Erlang(2, r).
  const double r = 0.5;
  FaultMaintenanceTree m;
  const NodeId p = m.add_basic_event("p", Distribution::exponential(r));
  const NodeId s = m.add_basic_event("s", Distribution::exponential(r));
  m.set_top(m.add_spare("pool", {p, s}, 0.0));
  for (double t : {0.5, 2.0, 5.0})
    EXPECT_NEAR(analytic::exact_unreliability(m, t), Distribution::erlang(2, r).cdf(t),
                1e-9)
        << t;
  EXPECT_NEAR(analytic::exact_mttf(m), 2.0 / r, 1e-8);
}

TEST(Spare, WarmStandbyMttfClosedForm) {
  // Warm standby, iid exp(r), dormancy d: MTTF = 1/(r(1+d)) + 1/r.
  const double r = 0.4, d = 0.3;
  FaultMaintenanceTree m;
  const NodeId p = m.add_basic_event("p", Distribution::exponential(r));
  const NodeId s = m.add_basic_event("s", Distribution::exponential(r));
  m.set_top(m.add_spare("pool", {p, s}, d));
  EXPECT_NEAR(analytic::exact_mttf(m), 1.0 / (r * (1 + d)) + 1.0 / r, 1e-8);
}

TEST(Spare, CtmcMatchesSimulation) {
  FaultMaintenanceTree m;
  const NodeId p = m.add_ebe("p", DegradationModel::erlang(2, 3.0, 3));
  const NodeId s = m.add_ebe("s", DegradationModel::erlang(2, 3.0, 3));
  const NodeId other = m.add_basic_event("other", Distribution::exponential(0.05));
  const NodeId pool = m.add_spare("pool", {p, s}, 0.25);
  m.set_top(m.add_or("top", {pool, other}));
  const double t = 6.0;
  const double exact = analytic::exact_unreliability(m, t);
  smc::AnalysisSettings settings;
  settings.horizon = t;
  settings.trajectories = 60000;
  settings.seed = 14;
  const smc::KpiReport k = smc::analyze(m, settings);
  EXPECT_TRUE(k.reliability.contains(1 - exact))
      << "exact=" << exact << " sim=" << 1 - k.reliability.point;
}

// ---- Text format -----------------------------------------------------------------

TEST(Spare, ParserRoundTrip) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T;
    T or Pool Other;
    Pool spare dormancy=0.25 P S1 S2;
    P ebe phases=2 mean=6 threshold=2;
    S1 ebe phases=2 mean=6 threshold=2;
    S2 ebe phases=2 mean=6 threshold=2;
    Other be exp(0.01);
  )");
  ASSERT_EQ(m.spares().size(), 1u);
  EXPECT_DOUBLE_EQ(m.spares()[0].dormancy, 0.25);
  EXPECT_EQ(m.spares()[0].children.size(), 3u);
  const FaultMaintenanceTree m2 = parse_fmt(to_text(m));
  ASSERT_EQ(m2.spares().size(), 1u);
  EXPECT_DOUBLE_EQ(m2.spares()[0].dormancy, 0.25);
  EXPECT_EQ(m2.name(m2.spares()[0].children[0]), "P");
}

TEST(Spare, ParserDefaultsToColdAndValidates) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel Pool;
    Pool spare P S;
    P be exp(0.5); S be exp(0.5);
  )");
  EXPECT_DOUBLE_EQ(m.spares()[0].dormancy, 0.0);
  EXPECT_THROW(parse_fmt(R"(
    toplevel Pool; Pool spare dormancy=2 P S; P be exp(1); S be exp(1);
  )"),
               ParseError);
}

}  // namespace
}  // namespace fmtree::fmt
