#include "sim/sampler.hpp"

#include <type_traits>
#include <variant>

namespace fmtree::sim {

// Table construction follows Marsaglia & Tsang's published setup: 256
// layers of equal area ve, x_255 = r, x_{i-1} = -log(exp(-x_i) + ve/x_i).
ExpZiggurat::ExpZiggurat() noexcept {
  constexpr double m = 4294967296.0;  // 2^32: draws are 32-bit integers
  constexpr double ve = 3.9496598225815571993e-3;
  double de = kR, te = kR;
  const double q = ve / std::exp(-de);
  ke_[0] = static_cast<std::uint32_t>((de / q) * m);
  ke_[1] = 0;
  we_[0] = q / m;
  we_[255] = de / m;
  fe_[0] = 1.0;
  fe_[255] = std::exp(-de);
  for (int i = 254; i >= 1; --i) {
    de = -std::log(ve / de + std::exp(-de));
    ke_[i + 1] = static_cast<std::uint32_t>((de / te) * m);
    te = de;
    fe_[i] = std::exp(-de);
    we_[i] = de / m;
  }
}

const ExpZiggurat kExpZiggurat;

SojournSampler::Row SojournSampler::row(const Distribution& d) {
  return std::visit(
      [](const auto& x) -> Row {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return {Kind::Exponential, 1.0 / x.rate, 0.0};
        } else if constexpr (std::is_same_v<T, Erlang>) {
          return {Kind::Erlang, 1.0 / x.rate, static_cast<double>(x.shape)};
        } else if constexpr (std::is_same_v<T, Weibull>) {
          return {Kind::Weibull, x.shape, x.scale};
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          return {Kind::Lognormal, x.mu, x.sigma};
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          return {Kind::Uniform, x.lo, x.hi};
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          return {Kind::Deterministic, x.value, 0.0};
        }
      },
      d.as_variant());
}

SojournSampler::SojournSampler(const fmt::FaultMaintenanceTree& model) {
  begin_.reserve(model.num_ebes());
  for (const fmt::ExtendedBasicEvent& ebe : model.ebes()) {
    const fmt::DegradationModel& deg = ebe.degradation;
    begin_.push_back(static_cast<std::uint32_t>(rows_.size()));
    for (int p = 1; p <= deg.phases(); ++p) rows_.push_back(row(deg.sojourn(p)));
  }
}

}  // namespace fmtree::sim
