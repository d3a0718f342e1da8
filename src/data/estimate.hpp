// Parameter estimation from field data: the calibration half of the study.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/generator.hpp"
#include "fmt/degradation.hpp"
#include "util/stats.hpp"

namespace fmtree::data {

/// Rate estimate from a Poisson count over an exposure, with an exact
/// (Garwood) confidence interval from gamma quantiles.
struct RateEstimate {
  double rate = 0.0;       ///< events / exposure
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t events = 0;
  double exposure = 0.0;
  double confidence = 0.95;
};

RateEstimate estimate_rate(std::uint64_t events, double exposure,
                           double confidence = 0.95);

/// Shape the moment-matched Erlang fit clamps to on degenerate input (zero
/// sample variance or a single sample): many phases approximate the
/// deterministic lifetime the data describes, and the clamp keeps the
/// division mean^2/variance from manufacturing inf/NaN or overflowing the
/// integer shape.
inline constexpr int kDegenerateErlangShape = 100;

/// Erlang fit by moment matching: shape = round(mean^2/var) clamped to
/// [1, kDegenerateErlangShape], rate = shape/mean.
struct ErlangFit {
  int shape = 1;
  double rate = 1.0;
  double sample_mean = 0.0;
  double sample_variance = 0.0;
  std::size_t n = 0;
  /// True when the input could not identify a shape (single sample, zero or
  /// near-zero variance) and the fit was clamped; `note` says why. The
  /// clamped fit is still a valid distribution over the observed mean.
  bool degenerate = false;
  std::string note;

  double mean() const noexcept { return static_cast<double>(shape) / rate; }
};

/// Throws DomainError on an empty sample or any non-positive / non-finite
/// value (NaN-poisoning guard); degenerate-but-valid inputs (all equal,
/// n == 1) yield a clamped fit flagged `degenerate` instead of inf/NaN.
ErlangFit fit_erlang(const std::vector<double>& samples);

/// Fits a full degradation model from elicited durations: the Erlang shape
/// and rate come from the time-to-failure samples; the threshold phase is
/// placed so that the model's expected time-to-threshold,
/// (threshold-1)/rate, matches the observed mean time-to-threshold.
/// Inherits fit_erlang's degenerate handling (a single sample or all-equal
/// durations fit a clamped near-deterministic model instead of throwing);
/// non-finite durations throw DomainError.
fmt::DegradationModel fit_degradation(const std::vector<DegradationSample>& samples);

/// Quantile of the Gamma(shape, rate=1) distribution by bisection on the
/// regularized incomplete gamma function. Exposed for tests.
double gamma_quantile(double shape, double p);

}  // namespace fmtree::data
