// Deterministic random number generation with independent streams.
//
// Every stream is identified by a (seed, stream-id) pair. Monte-Carlo
// trajectory i always uses stream i regardless of which thread runs it, so
// results are bit-for-bit reproducible at any thread count.
//
// One generator family lives here: CounterStream, counter-based
// Philox-4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
// 3"). Draw i of stream t under seed s is the pure function
// philox(key = s, counter = (t, i)): no state to carry, so a stream can be
// evaluated out of order, resumed at any draw index, or interleaved with
// others without perturbing any other stream. The trajectory kernel keys one
// CounterStream per trajectory, which is what makes its reports bit-identical
// at any chunk size and thread count by construction. The draws outside the
// kernel (the corridor's per-joint jitter, the elicitation datasets) use the
// same family under stream ids of their own.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace fmtree {

/// Philox-4x32-10: a counter-based generator. One invocation bijectively
/// maps a 128-bit counter (under a 64-bit key) to 128 output bits through
/// ten multiply-xor rounds; distinct counters therefore *cannot* collide
/// within a key. Passes BigCrush/Crush in the Random123 test battery.
class Philox4x32 {
public:
  struct Block {
    std::array<std::uint32_t, 4> word;
  };

  /// The block for counter (ctr_lo, ctr_hi) under `key`.
  static constexpr Block block(std::uint64_t key, std::uint64_t ctr_lo,
                               std::uint64_t ctr_hi) noexcept {
    std::uint32_t c0 = static_cast<std::uint32_t>(ctr_lo);
    std::uint32_t c1 = static_cast<std::uint32_t>(ctr_lo >> 32);
    std::uint32_t c2 = static_cast<std::uint32_t>(ctr_hi);
    std::uint32_t c3 = static_cast<std::uint32_t>(ctr_hi >> 32);
    std::uint32_t k0 = static_cast<std::uint32_t>(key);
    std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * c0;
      const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * c2;
      const std::uint32_t n0 =
          static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
      const std::uint32_t n1 = static_cast<std::uint32_t>(p1);
      const std::uint32_t n2 =
          static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
      const std::uint32_t n3 = static_cast<std::uint32_t>(p0);
      c0 = n0;
      c1 = n1;
      c2 = n2;
      c3 = n3;
      k0 += kWeyl0;
      k1 += kWeyl1;
    }
    return Block{{c0, c1, c2, c3}};
  }

private:
  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
};

/// A counter-based stream of uniform variates identified by (seed, stream).
///
/// Output i is the pure function Philox(key = seed, counter = (stream, i)) —
/// there is no hidden state, so the same (seed, stream, i) triple always
/// yields the same value no matter which draws preceded it, and distinct
/// (stream, i) pairs can never collide under one seed.
class CounterStream {
public:
  using result_type = std::uint64_t;

  CounterStream(std::uint64_t seed, std::uint64_t stream) noexcept
      : seed_(seed), stream_(stream) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// The draw at `index` of stream (seed, stream) — random access, no state.
  static constexpr result_type at(std::uint64_t seed, std::uint64_t stream,
                                  std::uint64_t index) noexcept {
    const Philox4x32::Block b = Philox4x32::block(seed, index >> 1, stream);
    const unsigned half = static_cast<unsigned>(index & 1) * 2;
    return static_cast<std::uint64_t>(b.word[half]) |
           (static_cast<std::uint64_t>(b.word[half + 1]) << 32);
  }

  /// Sequential draws walk the counter; each Philox block serves two 64-bit
  /// outputs, so only every second call runs the cipher.
  result_type operator()() noexcept {
    const std::uint64_t blk = draw_ >> 1;
    if (blk != cached_block_) {
      const Philox4x32::Block b = Philox4x32::block(seed_, blk, stream_);
      cached_[0] = static_cast<std::uint64_t>(b.word[0]) |
                   (static_cast<std::uint64_t>(b.word[1]) << 32);
      cached_[1] = static_cast<std::uint64_t>(b.word[2]) |
                   (static_cast<std::uint64_t>(b.word[3]) << 32);
      cached_block_ = blk;
    }
    return cached_[draw_++ & 1];
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; safe as an argument to log().
  double uniform01_open_left() noexcept { return 1.0 - uniform01(); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  std::uint64_t seed() const noexcept { return seed_; }
  std::uint64_t stream() const noexcept { return stream_; }
  /// Index of the next draw operator()() would produce.
  std::uint64_t draw_index() const noexcept { return draw_; }

private:
  std::uint64_t seed_;
  std::uint64_t stream_;
  std::uint64_t draw_ = 0;
  std::uint64_t cached_block_ = ~std::uint64_t{0};
  std::array<std::uint64_t, 2> cached_{};
};

}  // namespace fmtree
