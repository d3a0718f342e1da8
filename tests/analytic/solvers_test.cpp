#include "analytic/solvers.hpp"

#include <gtest/gtest.h>

#include <exception>

#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::analytic {
namespace {

/// Monte-Carlo mean time to first system failure, right-censored at the
/// horizon: the simulation side of the exact_mttf cross-check. `censored`
/// counts the trajectories that survived the horizon.
ConfidenceInterval smc_mttf(const fmt::FaultMaintenanceTree& model,
                            const smc::AnalysisSettings& s, std::uint64_t& censored) {
  RunningStats ttf;
  smc::AnalysisFold fold(s, [&](const sim::TrajectoryResult& r) {
    const bool survived = r.first_failure_time > s.horizon;
    ttf.add(survived ? s.horizon : r.first_failure_time);
    if (survived) ++censored;
  });
  const smc::Simulation simulation(model, s);
  smc::PoolJob job = simulation.job(fold);
  smc::run_pool({&job, 1}, {});
  if (job.error) std::rethrow_exception(job.error);
  return ttf.mean_ci(s.confidence);
}

TEST(Mtta, ErlangChainMatchesMean) {
  // 0 -> 1 -> 2 -> 3 absorbing, rate r each: E[T] = 3/r.
  const double r = 0.8;
  Ctmc c(4);
  for (State s = 0; s < 3; ++s) c.add_transition(s, s + 1, r);
  const std::vector<double> init{1, 0, 0, 0};
  const std::vector<bool> absorbing{false, false, false, true};
  EXPECT_NEAR(mean_time_to_absorption(c, init, absorbing), 3.0 / r, 1e-8);
}

TEST(Mtta, CompetingAbsorptionUsesMinimum) {
  // From 0: to absorbing 1 at rate a, to absorbing 2 at rate b -> E = 1/(a+b).
  Ctmc c(3);
  c.add_transition(0, 1, 0.5);
  c.add_transition(0, 2, 1.5);
  const std::vector<bool> absorbing{false, true, true};
  EXPECT_NEAR(mean_time_to_absorption(c, {1, 0, 0}, absorbing), 0.5, 1e-9);
}

TEST(Mtta, RepairableSystemClosedForm) {
  // Up(0) -> Degraded(1) at rate d; Degraded -> Up at repair rate r;
  // Degraded -> Failed(2, absorbing) at rate f.
  // h1 = (1 + r*h0) / (r + f), h0 = 1/d + h1 -> solve:
  const double d = 0.4, r = 2.0, f = 0.3;
  Ctmc c(3);
  c.add_transition(0, 1, d);
  c.add_transition(1, 0, r);
  c.add_transition(1, 2, f);
  // Hitting equations: h0 = 1/d + h1 and h1 = (1 + r h0)/(r+f)
  //   => h1 (r+f) = 1 + r/d + r h1  =>  h1 = (1 + r/d)/f.
  const double h1 = (1.0 + r / d) / f;
  const double h0 = 1.0 / d + h1;
  const std::vector<bool> absorbing{false, false, true};
  EXPECT_NEAR(mean_time_to_absorption(c, {1, 0, 0}, absorbing), h0, 1e-7);
}

TEST(Mtta, UnreachableAbsorbingSetThrows) {
  Ctmc c(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 1.0);  // {0,1} closed; 2 unreachable
  const std::vector<bool> absorbing{false, false, true};
  EXPECT_THROW(mean_time_to_absorption(c, {1, 0, 0}, absorbing), DomainError);
}

TEST(Mtta, SizeValidation) {
  Ctmc c(2);
  c.add_transition(0, 1, 1.0);
  EXPECT_THROW(mean_time_to_absorption(c, {1.0}, {false, true}), DomainError);
  EXPECT_THROW(mean_time_to_absorption(c, {1, 0}, {false}), DomainError);
}

// ---- exact_mttf vs closed forms and vs SMC ---------------------------------------

TEST(ExactMttf, SingleErlangLeaf) {
  fmt::FaultMaintenanceTree m;
  m.set_top(m.add_ebe("a", fmt::DegradationModel::erlang(4, 8.0, 2)));
  EXPECT_NEAR(exact_mttf(m), 8.0, 1e-8);
}

TEST(ExactMttf, SeriesOfExponentials) {
  // min(exp(a), exp(b)) ~ exp(a+b).
  fmt::FaultMaintenanceTree m;
  const auto a = m.add_basic_event("a", Distribution::exponential(0.3));
  const auto b = m.add_basic_event("b", Distribution::exponential(0.2));
  m.set_top(m.add_or("top", {a, b}));
  EXPECT_NEAR(exact_mttf(m), 2.0, 1e-8);
}

TEST(ExactMttf, ParallelOfExponentials) {
  // max of two iid exp(r): E = 1/(2r) + 1/r.
  fmt::FaultMaintenanceTree m;
  const auto a = m.add_basic_event("a", Distribution::exponential(0.5));
  const auto b = m.add_basic_event("b", Distribution::exponential(0.5));
  m.set_top(m.add_and("top", {a, b}));
  EXPECT_NEAR(exact_mttf(m), 1.0 + 2.0, 1e-8);
}

TEST(ExactMttf, AgreesWithSmcEstimate) {
  fmt::FaultMaintenanceTree m;
  const auto a = m.add_ebe("a", fmt::DegradationModel::erlang(3, 5.0, 4));
  const auto b = m.add_ebe("b", fmt::DegradationModel::erlang(2, 7.0, 3));
  m.set_top(m.add_voting("top", 2, {a, b}));  // = AND
  m.add_rdep("dep", a, {b}, 2.0);
  const double exact = exact_mttf(m);
  smc::AnalysisSettings s;
  s.horizon = 200.0;  // long enough that censoring is negligible
  s.trajectories = 40000;
  s.seed = 4;
  std::uint64_t censored = 0;
  const ConfidenceInterval estimate = smc_mttf(m, s, censored);
  EXPECT_LT(censored, 5u);
  EXPECT_TRUE(estimate.contains(exact))
      << "exact=" << exact << " estimate=" << estimate.point;
}

}  // namespace
}  // namespace fmtree::analytic
