#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.std_error(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MeanCiCoversTrueMean) {
  // 95% CI over repeated experiments should cover the true mean ~95% of the
  // time; check coverage is at least 90% over 200 replications.
  int covered = 0;
  for (int rep = 0; rep < 200; ++rep) {
    CounterStream rng(42, static_cast<std::uint64_t>(rep));
    RunningStats s;
    for (int i = 0; i < 500; ++i) s.add(rng.uniform(0, 2));  // true mean 1
    if (s.mean_ci(0.95).contains(1.0)) ++covered;
  }
  EXPECT_GE(covered, 180);
}

TEST(RunningStats, MeanCiRejectsBadConfidence) {
  RunningStats s;
  s.add(1);
  EXPECT_THROW(s.mean_ci(0.0), DomainError);
  EXPECT_THROW(s.mean_ci(1.0), DomainError);
}

TEST(WilsonInterval, KnownValue) {
  // 8/10 successes, 95%: Wilson gives about [0.49, 0.94].
  const ConfidenceInterval ci = wilson_interval(8, 10, 0.95);
  EXPECT_NEAR(ci.point, 0.8, 1e-12);
  EXPECT_NEAR(ci.lo, 0.4902, 0.005);
  EXPECT_NEAR(ci.hi, 0.9433, 0.005);
}

TEST(WilsonInterval, DegenerateCountsStayInUnitInterval) {
  const ConfidenceInterval zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.point, 0.0);
  EXPECT_NEAR(zero.lo, 0.0, 1e-12);
  EXPECT_GT(zero.hi, 0.001);
  const ConfidenceInterval full = wilson_interval(50, 50);
  EXPECT_EQ(full.point, 1.0);
  EXPECT_LT(full.lo, 0.999);
  EXPECT_NEAR(full.hi, 1.0, 1e-12);
}

TEST(WilsonInterval, RejectsBadInput) {
  EXPECT_THROW(wilson_interval(1, 0), DomainError);
  EXPECT_THROW(wilson_interval(5, 3), DomainError);
  EXPECT_THROW(wilson_interval(1, 2, 1.5), DomainError);
}

}  // namespace
}  // namespace fmtree
