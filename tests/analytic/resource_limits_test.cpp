// Guarded numerics: iteration and series caps surface as ResourceLimitError
// carrying the partial progress made, with stable messages callers (the CLI
// fallback, these tests) can rely on.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "analytic/ctmc.hpp"
#include "analytic/fmt2ctmc.hpp"
#include "analytic/solvers.hpp"
#include "fmt/parser.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace fmtree::analytic {
namespace {

TEST(ResourceLimits, HittingTimeNonConvergenceCarriesProgress) {
  // 0 -> 1 absorbing; with tolerance 0 the Gauss-Seidel loop can never
  // declare victory.
  Ctmc c(3);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 2, 0.5);
  SolverOptions opts;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;
  try {
    (void)mean_time_to_absorption(c, {1.0, 0.0, 0.0}, {false, false, true}, opts);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("failed to converge"), std::string::npos);
    EXPECT_EQ(e.progress().iterations, 2u);
    EXPECT_GT(e.progress().residual, 0.0);
    EXPECT_EQ(e.progress().states, 3u);
  }
}

TEST(ResourceLimits, SolverDomainErrorsUnchanged) {
  // Unreachable absorbing set is a modelling problem, not a budget problem:
  // still DomainError.
  Ctmc c(2);
  c.add_transition(1, 0, 1.0);
  EXPECT_THROW(
      (void)mean_time_to_absorption(c, {1.0, 0.0}, {false, true}, SolverOptions{}),
      DomainError);
}

TEST(ResourceLimits, PoissonSeriesCapCarriesTermCount) {
  try {
    // lambda*t = 1e6 needs ~thousands of terms past the mode; cap at 10.
    (void)poisson_weights(1e6, 1e-12, 10);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("poisson series"), std::string::npos);
    EXPECT_GE(e.progress().iterations, 10u);
    EXPECT_GT(e.progress().residual, 0.0);  // the unconverged tail mass
  }
}

TEST(ResourceLimits, PoissonSeriesConvergesUnderDefaultCap) {
  const auto w = poisson_weights(50.0, 1e-12);
  double sum = 0;
  for (double p : w) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ResourceLimits, PoissonRejectsNonFiniteRate) {
  EXPECT_THROW((void)poisson_weights(std::numeric_limits<double>::infinity(), 1e-12),
               DomainError);
}

TEST(ResourceLimits, StateSpaceCapNamesTheCap) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(R"(
    toplevel T;
    T and A B C D E F;
    A ebe phases=4 mean=10; B ebe phases=4 mean=10; C ebe phases=4 mean=10;
    D ebe phases=4 mean=10; E ebe phases=4 mean=10; F ebe phases=4 mean=10;
  )");
  try {
    (void)fmt_to_ctmc(model, FailureTreatment::Absorbing, /*max_states=*/16);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    EXPECT_NE(std::string(e.what()).find("max_states"), std::string::npos);
    EXPECT_GE(e.progress().states, 16u);
  }
}

TEST(ResourceLimits, RunningStatsExcludesNonFiniteAndRefusesIntervals) {
  RunningStats s;
  s.add(1.0);
  s.add(std::numeric_limits<double>::quiet_NaN());
  s.add(3.0);
  s.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.non_finite_count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);  // the finite samples only
  try {
    (void)s.mean_ci(0.95);
    FAIL() << "expected DomainError";
  } catch (const DomainError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

}  // namespace
}  // namespace fmtree::analytic
