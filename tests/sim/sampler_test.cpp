// The one sampler behind every KPI: SojournSampler's row switch, checked
// against each family's mean, variance and CDF (law of large numbers).
#include "sim/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace fmtree::sim {
namespace {

class SamplingMatchesMoments : public ::testing::TestWithParam<Distribution> {};

TEST_P(SamplingMatchesMoments, MeanAndVariance) {
  const Distribution d = GetParam();
  CounterStream rng(2024, 0);
  RunningStats stats;
  const int n = 200000;
  for (int i = 0; i < n; ++i) stats.add(SojournSampler::sample(d, rng));
  const double tol_mean = 4 * std::sqrt(d.variance() / n) + 1e-9;
  EXPECT_NEAR(stats.mean(), d.mean(), tol_mean) << d.to_string();
  // Variance estimate tolerance: generous 10% (heavy-tailed lognormal).
  if (d.variance() > 0) {
    EXPECT_NEAR(stats.variance(), d.variance(), 0.1 * d.variance()) << d.to_string();
  }
}

TEST_P(SamplingMatchesMoments, SamplesNonNegative) {
  const Distribution d = GetParam();
  CounterStream rng(7, 3);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(SojournSampler::sample(d, rng), 0.0);
}

TEST_P(SamplingMatchesMoments, EmpiricalCdfMatchesCdf) {
  const Distribution d = GetParam();
  CounterStream rng(55, 1);
  const int n = 100000;
  const double t = d.mean();  // probe at the mean
  int below = 0;
  for (int i = 0; i < n; ++i)
    if (SojournSampler::sample(d, rng) <= t) ++below;
  EXPECT_NEAR(static_cast<double>(below) / n, d.cdf(t), 0.01) << d.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SamplingMatchesMoments,
    ::testing::Values(Distribution::exponential(0.5), Distribution::exponential(4.0),
                      Distribution::erlang(2, 1.0), Distribution::erlang(6, 0.3),
                      Distribution::weibull(0.8, 2.0), Distribution::weibull(2.5, 5.0),
                      Distribution::lognormal(0.0, 0.5),
                      Distribution::uniform(1.0, 3.0),
                      Distribution::deterministic(2.5)));

}  // namespace
}  // namespace fmtree::sim
