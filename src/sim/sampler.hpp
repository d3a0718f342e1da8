// Sojourn sampling: the one sampler of fmtree. Every (leaf, phase)
// Distribution of a model is flattened into a tagged row and drawn from a
// counter-based stream, so the trajectory kernel (BatchExecutor) and its
// reference oracle (Reference) turn the same draws into the same sojourn
// bits. The draws outside a trajectory (the corridor's per-joint jitter, the
// elicitation datasets) go through the same row switch.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fmt/fmtree.hpp"
#include "util/rng.hpp"

namespace fmtree::sim {

/// Ziggurat sampler for Exp(1) (Marsaglia & Tsang 2000, 256 layers): one
/// 32-bit draw, a table compare and a multiply produce ~98% of samples
/// without ever calling log(). An exact method, not an approximation: the
/// accepted values follow Exp(1) precisely, rejections fall through to the
/// wedge/tail tests.
class ExpZiggurat {
public:
  /// Right edge of the base layer; samples beyond it come from the analytic
  /// tail r + Exp(1).
  static constexpr double kR = 7.69711747013104972;

  ExpZiggurat() noexcept;

  double sample(CounterStream& rng) const noexcept {
    for (;;) {
      const auto j = static_cast<std::uint32_t>(rng() >> 32);
      const unsigned i = j & 255u;
      const double x = j * we_[i];
      if (j < ke_[i]) return x;  // inside the layer rectangle: ~98% of draws
      if (i == 0) return kR - std::log(rng.uniform01_open_left());
      if (fe_[i] + rng.uniform01() * (fe_[i - 1] - fe_[i]) < std::exp(-x)) return x;
    }
  }

private:
  std::array<std::uint32_t, 256> ke_;  ///< acceptance thresholds
  std::array<double, 256> we_;         ///< layer widths (x scale / 2^32)
  std::array<double, 256> fe_;         ///< f(x_i) = exp(-x_i)
};

/// The process-wide table (~5 KB). It does not depend on the model, so every
/// kernel and every reference simulator shares this one instance.
extern const ExpZiggurat kExpZiggurat;

/// Per-(leaf, phase) sojourn samplers of one model. Immutable; shareable.
class SojournSampler {
public:
  explicit SojournSampler(const fmt::FaultMaintenanceTree& model);

  /// One natural-rate sojourn of `phase` (1-based) of leaf `leaf`.
  double sample(std::uint32_t leaf, std::int32_t phase, CounterStream& rng) const {
    return draw(rows_[begin_[leaf] + static_cast<std::uint32_t>(phase - 1)], rng);
  }

  /// One variate of `d`, through the same row switch as a model's sojourns.
  static double sample(const Distribution& d, CounterStream& rng) {
    return draw(row(d), rng);
  }

private:
  enum class Kind : std::uint8_t {
    Exponential,    ///< a = mean
    Erlang,         ///< a = phase mean, b = shape
    Weibull,        ///< a = shape, b = scale
    Lognormal,      ///< a = mu, b = sigma
    Uniform,        ///< a = lo, b = hi
    Deterministic,  ///< a = value (+infinity = never)
  };
  /// Distribution flattened to a kind tag plus two parameters, so the hot
  /// loop switches instead of std::visit-ing.
  struct Row {
    Kind kind = Kind::Deterministic;
    double a = 0.0;
    double b = 0.0;
  };

  static Row row(const Distribution& d);

  /// Inlined into both sample()s, so the kernel's hot loop keeps one
  /// out-of-line call per sojourn, with the row lookup inside it.
  [[gnu::always_inline]] static double draw(const Row& s, CounterStream& rng) {
    switch (s.kind) {
      case Kind::Exponential:
        return kExpZiggurat.sample(rng) * s.a;
      case Kind::Erlang: {
        double sum = kExpZiggurat.sample(rng);
        for (std::int32_t i = 1; i < static_cast<std::int32_t>(s.b); ++i)
          sum += kExpZiggurat.sample(rng);
        return sum * s.a;
      }
      case Kind::Weibull:
        return s.b * std::pow(-std::log(rng.uniform01_open_left()), 1.0 / s.a);
      case Kind::Lognormal: {
        // Box–Muller, one variate per call: no state between calls.
        const double u1 = rng.uniform01_open_left();
        const double u2 = rng.uniform01();
        const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
        return std::exp(s.a + s.b * z);
      }
      case Kind::Uniform:
        return rng.uniform(s.a, s.b);
      case Kind::Deterministic:
        return s.a;
    }
    return s.a;  // unreachable
  }

  std::vector<Row> rows_;
  std::vector<std::uint32_t> begin_;  ///< per leaf: index of its phase-1 row
};

}  // namespace fmtree::sim
