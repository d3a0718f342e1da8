#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rng_testing.hpp"

namespace fmtree {
namespace {

TEST(Philox, IsAPureFunctionOfKeyAndCounter) {
  const auto a = Philox4x32::block(7, 13, 21);
  const auto b = Philox4x32::block(7, 13, 21);
  EXPECT_EQ(a.word, b.word);
}

TEST(Philox, AnyInputBitChangesTheBlock) {
  const auto base = Philox4x32::block(7, 13, 21);
  EXPECT_NE(base.word, Philox4x32::block(8, 13, 21).word);   // key
  EXPECT_NE(base.word, Philox4x32::block(7, 14, 21).word);   // ctr_lo
  EXPECT_NE(base.word, Philox4x32::block(7, 13, 22).word);   // ctr_hi
  EXPECT_NE(base.word, Philox4x32::block(7ull << 32, 13, 21).word);
}

TEST(CounterStream, SameIdentitySameSequence) {
  CounterStream a(7, 13);
  CounterStream b(7, 13);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(CounterStream, AtMatchesSequentialDraws) {
  // Random access at(seed, stream, i) must agree with the i-th sequential
  // draw — this is the property that lets a trajectory be re-run in
  // isolation (any chunk, any thread) and reproduce its stream exactly.
  CounterStream seq(42, 1234567);
  for (std::uint64_t i = 0; i < 256; ++i)
    ASSERT_EQ(seq(), CounterStream::at(42, 1234567, i)) << "draw " << i;
}

TEST(CounterStream, AtIsRandomAccess) {
  // Evaluating out of order or skipping draws changes nothing.
  const auto x100 = CounterStream::at(9, 5, 100);
  (void)CounterStream::at(9, 5, 3);
  (void)CounterStream::at(9, 5, 77);
  EXPECT_EQ(CounterStream::at(9, 5, 100), x100);
}

TEST(CounterStream, DistinctCountersNeverCollideAcrossStreams) {
  // Philox is a bijection on the 128-bit counter space under one key, so
  // distinct (stream, draw) pairs cannot produce colliding *blocks*. Check a
  // grid of streams x draws for distinct 64-bit outputs (a collision there
  // would be a once-in-2^32 birthday accident at this sample size, not a
  // generator property).
  std::set<std::uint64_t> seen;
  const std::uint64_t streams = 64, draws = 64;
  for (std::uint64_t s = 0; s < streams; ++s)
    for (std::uint64_t d = 0; d < draws; ++d)
      seen.insert(CounterStream::at(1, s, d));
  EXPECT_EQ(seen.size(), streams * draws);
}

TEST(CounterStream, DifferentStreamsAreDistinct) {
  CounterStream a(7, 0);
  CounterStream b(7, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(CounterStream, DifferentSeedsAreDistinct) {
  CounterStream a(1, 5);
  CounterStream b(2, 5);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(CounterStream, DistantStreamIdsStayIndependent) {
  // Pool chunks and elicitation datasets use arbitrary indices as stream ids;
  // adjacent and far-apart ids must be equally unrelated.
  CounterStream a(3, 0);
  CounterStream b(3, std::uint64_t{1} << 63);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(CounterStream, Uniform01InRange) {
  CounterStream rng(99, 0);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(CounterStream, Uniform01OpenLeftNeverZero) {
  CounterStream rng(99, 1);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01_open_left();
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(CounterStream, Uniform01MeanNearHalf) {
  CounterStream rng(3, 0);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(CounterStream, BelowIsBoundedAndCoversRange) {
  CounterStream rng(5, 0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = below(rng, 7);
    ASSERT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(CounterStream, BelowIsApproximatelyUniform) {
  CounterStream rng(11, 0);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[below(rng, 10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(CounterStream, BelowZeroIsTotal) {
  CounterStream rng(5, 0);
  EXPECT_EQ(below(rng, 0), 0u);
}

TEST(CounterStream, BelowOneIsZero) {
  CounterStream rng(5, 0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(below(rng, 1), 0u);
}

TEST(CounterStream, BernoulliMatchesProbability) {
  CounterStream rng(17, 0);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(CounterStream, UniformRangeRespected) {
  CounterStream rng(2, 2);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(3.0, 5.0);
    ASSERT_GE(x, 3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(CounterStream, IdentityAndDrawIndexAccessors) {
  CounterStream rng(123, 456);
  EXPECT_EQ(rng.seed(), 123u);
  EXPECT_EQ(rng.stream(), 456u);
  EXPECT_EQ(rng.draw_index(), 0u);
  (void)rng();
  (void)rng();
  (void)rng();
  EXPECT_EQ(rng.draw_index(), 3u);
}

}  // namespace
}  // namespace fmtree
