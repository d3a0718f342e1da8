#include "util/distributions.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace fmtree {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require(bool ok, const std::string& what) {
  if (!ok) throw DomainError(what);
}

}  // namespace

Distribution Distribution::exponential(double rate) {
  require(std::isfinite(rate) && rate > 0, "exponential rate must be positive");
  return Distribution(Exponential{rate});
}

Distribution Distribution::erlang(int shape, double rate) {
  require(shape >= 1, "erlang shape must be >= 1");
  require(std::isfinite(rate) && rate > 0, "erlang rate must be positive");
  return Distribution(Erlang{shape, rate});
}

Distribution Distribution::erlang_mean(int shape, double mean) {
  require(std::isfinite(mean) && mean > 0, "erlang mean must be positive");
  require(shape >= 1, "erlang shape must be >= 1");
  return erlang(shape, static_cast<double>(shape) / mean);
}

Distribution Distribution::weibull(double shape, double scale) {
  require(std::isfinite(shape) && shape > 0, "weibull shape must be positive");
  require(std::isfinite(scale) && scale > 0, "weibull scale must be positive");
  return Distribution(Weibull{shape, scale});
}

Distribution Distribution::lognormal(double mu, double sigma) {
  require(std::isfinite(mu), "lognormal mu must be finite");
  require(std::isfinite(sigma) && sigma > 0, "lognormal sigma must be positive");
  return Distribution(Lognormal{mu, sigma});
}

Distribution Distribution::uniform(double lo, double hi) {
  require(std::isfinite(lo) && std::isfinite(hi) && lo >= 0 && hi > lo,
          "uniform requires 0 <= lo < hi, both finite");
  return Distribution(UniformDist{lo, hi});
}

Distribution Distribution::deterministic(double value) {
  require(value >= 0 && !std::isnan(value), "deterministic value must be >= 0");
  return Distribution(Deterministic{value});
}

Distribution Distribution::never() { return Distribution(Deterministic{kInf}); }

double Distribution::mean() const {
  return std::visit(
      [](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return 1.0 / d.rate;
        } else if constexpr (std::is_same_v<T, Erlang>) {
          return static_cast<double>(d.shape) / d.rate;
        } else if constexpr (std::is_same_v<T, Weibull>) {
          return d.scale * std::exp(log_gamma(1.0 + 1.0 / d.shape));
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          return std::exp(d.mu + 0.5 * d.sigma * d.sigma);
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          return 0.5 * (d.lo + d.hi);
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          return d.value;
        }
      },
      v_);
}

double Distribution::variance() const {
  return std::visit(
      [](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return 1.0 / (d.rate * d.rate);
        } else if constexpr (std::is_same_v<T, Erlang>) {
          return static_cast<double>(d.shape) / (d.rate * d.rate);
        } else if constexpr (std::is_same_v<T, Weibull>) {
          const double g1 = std::exp(log_gamma(1.0 + 1.0 / d.shape));
          const double g2 = std::exp(log_gamma(1.0 + 2.0 / d.shape));
          return d.scale * d.scale * (g2 - g1 * g1);
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          const double s2 = d.sigma * d.sigma;
          return (std::exp(s2) - 1.0) * std::exp(2.0 * d.mu + s2);
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          const double w = d.hi - d.lo;
          return w * w / 12.0;
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          return std::isinf(d.value) ? kInf : 0.0;
        }
      },
      v_);
}

double Distribution::cdf(double x) const {
  if (x < 0) return 0.0;
  return std::visit(
      [x](const auto& d) -> double {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return 1.0 - std::exp(-d.rate * x);
        } else if constexpr (std::is_same_v<T, Erlang>) {
          return gamma_p(static_cast<double>(d.shape), d.rate * x);
        } else if constexpr (std::is_same_v<T, Weibull>) {
          return 1.0 - std::exp(-std::pow(x / d.scale, d.shape));
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          if (x == 0) return 0.0;
          return normal_cdf((std::log(x) - d.mu) / d.sigma);
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          if (x <= d.lo) return 0.0;
          if (x >= d.hi) return 1.0;
          return (x - d.lo) / (d.hi - d.lo);
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          return x >= d.value ? 1.0 : 0.0;
        }
      },
      v_);
}

Distribution Distribution::scaled(double factor) const {
  require(std::isfinite(factor) && factor > 0, "scale factor must be positive");
  return std::visit(
      [factor](const auto& d) -> Distribution {
        using T = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          return exponential(d.rate / factor);
        } else if constexpr (std::is_same_v<T, Erlang>) {
          return erlang(d.shape, d.rate / factor);
        } else if constexpr (std::is_same_v<T, Weibull>) {
          return weibull(d.shape, d.scale * factor);
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          return lognormal(d.mu + std::log(factor), d.sigma);
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          return uniform(d.lo * factor, d.hi * factor);
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          return Distribution(Deterministic{d.value * factor});
        }
      },
      v_);
}

bool Distribution::is_never() const noexcept {
  const auto* det = std::get_if<Deterministic>(&v_);
  return det != nullptr && std::isinf(det->value);
}

std::string Distribution::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Distribution& d) {
  std::visit(
      [&os](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, Exponential>) {
          os << "Exponential(rate=" << x.rate << ")";
        } else if constexpr (std::is_same_v<T, Erlang>) {
          os << "Erlang(" << x.shape << ", rate=" << x.rate << ")";
        } else if constexpr (std::is_same_v<T, Weibull>) {
          os << "Weibull(shape=" << x.shape << ", scale=" << x.scale << ")";
        } else if constexpr (std::is_same_v<T, Lognormal>) {
          os << "Lognormal(mu=" << x.mu << ", sigma=" << x.sigma << ")";
        } else if constexpr (std::is_same_v<T, UniformDist>) {
          os << "Uniform[" << x.lo << ", " << x.hi << "]";
        } else {
          static_assert(std::is_same_v<T, Deterministic>);
          if (std::isinf(x.value))
            os << "Never";
          else
            os << "Deterministic(" << x.value << ")";
        }
      },
      d.as_variant());
  return os;
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) throw DomainError("normal_quantile requires p in (0,1)");
  // Peter Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double q, r, x;
  if (p < p_low) {
    q = std::sqrt(-2 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  } else if (p <= 1 - p_low) {
    q = p - 0.5;
    r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  } else {
    q = std::sqrt(-2 * std::log(1 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  return x;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double log_gamma(double x) {
  if (!(x > 0)) throw DomainError("log_gamma requires x > 0");
  return std::lgamma(x);
}

namespace {

// Series expansion of P(a, x), valid for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued fraction for Q(a, x) = 1 - P(a, x), valid for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  if (!(a > 0)) throw DomainError("gamma_p requires a > 0");
  if (x < 0) throw DomainError("gamma_p requires x >= 0");
  if (x == 0) return 0.0;
  if (std::isinf(x)) return 1.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

}  // namespace fmtree
