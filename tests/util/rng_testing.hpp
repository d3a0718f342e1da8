// Bounded integer draws for the randomized test generators.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace fmtree {

/// Uniform integer in [0, n) from a CounterStream, by Lemire's
/// nearly-divisionless multiply-shift rejection method. below(rng, 0) is 0.
inline std::uint64_t below(CounterStream& rng, std::uint64_t n) noexcept {
  if (n == 0) return 0;
  std::uint64_t x = rng();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace fmtree
