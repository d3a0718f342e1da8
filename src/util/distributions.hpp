// Probability distributions over non-negative durations.
//
// A Distribution is a small value type (tagged union) so models can be
// copied, compared and serialized freely. It has no sampler of its own:
// every variate is drawn by sim::SojournSampler (sim/sampler.hpp), the one
// sampler the trajectory kernel uses.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>

namespace fmtree {

/// Exponential(rate): mean 1/rate.
struct Exponential {
  double rate;
  friend bool operator==(const Exponential&, const Exponential&) = default;
};

/// Erlang(k, rate): sum of k iid Exponential(rate) phases; mean k/rate.
struct Erlang {
  int shape;    ///< number of phases k >= 1
  double rate;  ///< rate of each phase
  friend bool operator==(const Erlang&, const Erlang&) = default;
};

/// Weibull(shape, scale): F(x) = 1 - exp(-(x/scale)^shape).
struct Weibull {
  double shape;
  double scale;
  friend bool operator==(const Weibull&, const Weibull&) = default;
};

/// Lognormal: log X ~ Normal(mu, sigma^2).
struct Lognormal {
  double mu;
  double sigma;
  friend bool operator==(const Lognormal&, const Lognormal&) = default;
};

/// Uniform on [lo, hi].
struct UniformDist {
  double lo;
  double hi;
  friend bool operator==(const UniformDist&, const UniformDist&) = default;
};

/// Point mass at `value`. value = +infinity means "never happens".
struct Deterministic {
  double value;
  friend bool operator==(const Deterministic&, const Deterministic&) = default;
};

/// A duration distribution. Construct via the factory functions below, which
/// validate parameters (throwing DomainError on nonsense).
class Distribution {
public:
  using Variant =
      std::variant<Exponential, Erlang, Weibull, Lognormal, UniformDist, Deterministic>;

  static Distribution exponential(double rate);
  static Distribution erlang(int shape, double rate);
  /// Erlang with the given mean split over `shape` phases (rate = shape/mean).
  static Distribution erlang_mean(int shape, double mean);
  static Distribution weibull(double shape, double scale);
  static Distribution lognormal(double mu, double sigma);
  static Distribution uniform(double lo, double hi);
  static Distribution deterministic(double value);
  /// Point mass at +infinity: the event never occurs.
  static Distribution never();

  /// E[X]; +infinity for never().
  double mean() const;

  /// Var[X]; 0 for deterministic, +infinity propagates from never().
  double variance() const;

  /// P(X <= x).
  double cdf(double x) const;

  /// The distribution of factor * X (time rescaling within the same family:
  /// rates divide by the factor, scales multiply). factor must be positive
  /// and finite; never() is a fixpoint. Used by fleet generators to jitter
  /// and couple per-asset degradation speeds without leaving the family —
  /// so scaled models stay CTMC-convertible and canonically hashable.
  Distribution scaled(double factor) const;

  /// True iff this is a point mass at +infinity.
  bool is_never() const noexcept;

  /// Short human-readable form, e.g. "Erlang(3, rate=0.25)".
  std::string to_string() const;

  const Variant& as_variant() const noexcept { return v_; }

  friend bool operator==(const Distribution&, const Distribution&) = default;

private:
  explicit Distribution(Variant v) noexcept : v_(std::move(v)) {}

  Variant v_;
};

std::ostream& operator<<(std::ostream& os, const Distribution& d);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Exposed for tests and estimators.
double normal_quantile(double p);

/// Standard normal CDF.
double normal_cdf(double x);

/// Regularized lower incomplete gamma P(a, x); used for Erlang/Weibull CDFs
/// and chi-square tail probabilities.
double gamma_p(double a, double x);

/// ln Gamma(x) for x > 0.
double log_gamma(double x);

}  // namespace fmtree
