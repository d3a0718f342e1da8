#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace fmtree {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Construction / validation ---------------------------------------------

TEST(DistributionFactories, RejectInvalidParameters) {
  EXPECT_THROW(Distribution::exponential(0), DomainError);
  EXPECT_THROW(Distribution::exponential(-1), DomainError);
  EXPECT_THROW(Distribution::erlang(0, 1), DomainError);
  EXPECT_THROW(Distribution::erlang(3, 0), DomainError);
  EXPECT_THROW(Distribution::erlang_mean(2, -1), DomainError);
  EXPECT_THROW(Distribution::weibull(0, 1), DomainError);
  EXPECT_THROW(Distribution::weibull(1, 0), DomainError);
  EXPECT_THROW(Distribution::lognormal(0, 0), DomainError);
  EXPECT_THROW(Distribution::uniform(2, 1), DomainError);
  EXPECT_THROW(Distribution::uniform(-1, 1), DomainError);
  EXPECT_THROW(Distribution::deterministic(-2), DomainError);
}

TEST(DistributionFactories, ErlangMeanSetsCorrectRate) {
  const Distribution d = Distribution::erlang_mean(4, 8.0);
  EXPECT_DOUBLE_EQ(d.mean(), 8.0);
  const auto& e = std::get<Erlang>(d.as_variant());
  EXPECT_EQ(e.shape, 4);
  EXPECT_DOUBLE_EQ(e.rate, 0.5);
}

TEST(DistributionFactories, EqualityComparesParameters) {
  EXPECT_EQ(Distribution::exponential(2), Distribution::exponential(2));
  EXPECT_NE(Distribution::exponential(2), Distribution::exponential(3));
  EXPECT_NE(Distribution::exponential(2), Distribution::erlang(1, 2));
}

// ---- Moments ----------------------------------------------------------------

TEST(DistributionMoments, Exponential) {
  const Distribution d = Distribution::exponential(0.25);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.variance(), 16.0);
}

TEST(DistributionMoments, Erlang) {
  const Distribution d = Distribution::erlang(3, 0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.variance(), 12.0);
}

TEST(DistributionMoments, WeibullShapeOneIsExponential) {
  const Distribution w = Distribution::weibull(1.0, 5.0);
  EXPECT_NEAR(w.mean(), 5.0, 1e-12);
  EXPECT_NEAR(w.variance(), 25.0, 1e-9);
}

TEST(DistributionMoments, Lognormal) {
  const Distribution d = Distribution::lognormal(0.0, 1.0);
  EXPECT_NEAR(d.mean(), std::exp(0.5), 1e-12);
  EXPECT_NEAR(d.variance(), (std::exp(1.0) - 1) * std::exp(1.0), 1e-9);
}

TEST(DistributionMoments, UniformAndDeterministic) {
  EXPECT_DOUBLE_EQ(Distribution::uniform(2, 6).mean(), 4.0);
  EXPECT_NEAR(Distribution::uniform(2, 6).variance(), 16.0 / 12.0, 1e-12);
  EXPECT_DOUBLE_EQ(Distribution::deterministic(3).mean(), 3.0);
  EXPECT_DOUBLE_EQ(Distribution::deterministic(3).variance(), 0.0);
}

TEST(DistributionMoments, NeverHasInfiniteMean) {
  EXPECT_TRUE(std::isinf(Distribution::never().mean()));
  EXPECT_TRUE(Distribution::never().is_never());
  EXPECT_FALSE(Distribution::deterministic(1).is_never());
}

// ---- CDFs --------------------------------------------------------------------

TEST(DistributionCdf, NegativeArgumentIsZero) {
  EXPECT_EQ(Distribution::exponential(1).cdf(-1), 0.0);
  EXPECT_EQ(Distribution::deterministic(0).cdf(-0.5), 0.0);
}

TEST(DistributionCdf, ExponentialClosedForm) {
  const Distribution d = Distribution::exponential(2.0);
  EXPECT_NEAR(d.cdf(1.0), 1 - std::exp(-2.0), 1e-12);
  EXPECT_NEAR(d.cdf(0.0), 0.0, 1e-12);
}

TEST(DistributionCdf, ErlangMatchesPoissonSum) {
  // P(Erlang(k, r) <= t) = P(Poisson(rt) >= k).
  const double r = 0.7, t = 3.0;
  const int k = 4;
  const Distribution d = Distribution::erlang(k, r);
  double poisson_lt_k = 0;
  double term = std::exp(-r * t);
  for (int j = 0; j < k; ++j) {
    poisson_lt_k += term;
    term *= r * t / (j + 1);
  }
  EXPECT_NEAR(d.cdf(t), 1.0 - poisson_lt_k, 1e-10);
}

TEST(DistributionCdf, WeibullClosedForm) {
  const Distribution d = Distribution::weibull(2.0, 3.0);
  EXPECT_NEAR(d.cdf(3.0), 1 - std::exp(-1.0), 1e-12);
}

TEST(DistributionCdf, DeterministicIsStep) {
  const Distribution d = Distribution::deterministic(2.0);
  EXPECT_EQ(d.cdf(1.999), 0.0);
  EXPECT_EQ(d.cdf(2.0), 1.0);
}

TEST(DistributionCdf, NeverIsAlwaysZero) {
  EXPECT_EQ(Distribution::never().cdf(1e100), 0.0);
}

TEST(DistributionCdf, MonotoneNondecreasing) {
  const Distribution dists[] = {
      Distribution::exponential(0.5), Distribution::erlang(3, 1.0),
      Distribution::weibull(1.5, 2.0), Distribution::lognormal(0.5, 0.8),
      Distribution::uniform(1, 4)};
  for (const Distribution& d : dists) {
    double prev = 0.0;
    for (double t = 0; t <= 20.0; t += 0.05) {
      const double f = d.cdf(t);
      ASSERT_GE(f, prev) << d.to_string() << " at t=" << t;
      ASSERT_LE(f, 1.0 + 1e-12);
      prev = f;
    }
  }
}

// ---- Special functions --------------------------------------------------------

TEST(SpecialFunctions, NormalQuantileRoundTrips) {
  for (double p : {0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8) << p;
  }
}

TEST(SpecialFunctions, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
}

TEST(SpecialFunctions, NormalQuantileRejectsOutOfDomain) {
  EXPECT_THROW(normal_quantile(0.0), DomainError);
  EXPECT_THROW(normal_quantile(1.0), DomainError);
}

TEST(SpecialFunctions, GammaPBoundaries) {
  EXPECT_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_EQ(gamma_p(2.0, kInf), 1.0);
  EXPECT_THROW(gamma_p(0.0, 1.0), DomainError);
  EXPECT_THROW(gamma_p(1.0, -1.0), DomainError);
}

TEST(SpecialFunctions, GammaPShapeOneIsExponentialCdf) {
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(gamma_p(1.0, x), 1 - std::exp(-x), 1e-12);
}

TEST(SpecialFunctions, GammaPIntegerShapeMatchesErlang) {
  // gamma_p(k, x) with integer k equals 1 - sum_{j<k} e^-x x^j / j!.
  const int k = 5;
  const double x = 3.7;
  double sum = 0, term = std::exp(-x);
  for (int j = 0; j < k; ++j) {
    sum += term;
    term *= x / (j + 1);
  }
  EXPECT_NEAR(gamma_p(k, x), 1 - sum, 1e-10);
}

TEST(SpecialFunctions, LogGammaFactorials) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_THROW(log_gamma(0.0), DomainError);
}

TEST(DistributionPrinting, ToStringFormats) {
  EXPECT_EQ(Distribution::exponential(2).to_string(), "Exponential(rate=2)");
  EXPECT_EQ(Distribution::erlang(3, 0.5).to_string(), "Erlang(3, rate=0.5)");
  EXPECT_EQ(Distribution::never().to_string(), "Never");
}

}  // namespace
}  // namespace fmtree
