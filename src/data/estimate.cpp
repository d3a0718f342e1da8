#include "data/estimate.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace fmtree::data {

double gamma_quantile(double shape, double p) {
  if (!(shape > 0)) throw DomainError("gamma_quantile requires shape > 0");
  if (!(p > 0 && p < 1)) throw DomainError("gamma_quantile requires p in (0,1)");
  // Bracket the root of gamma_p(shape, x) = p.
  double lo = 0.0;
  double hi = std::max(1.0, shape);
  while (gamma_p(shape, hi) < p) {
    hi *= 2;
    if (hi > 1e12) throw DomainError("gamma_quantile failed to bracket");
  }
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (gamma_p(shape, mid) < p)
      lo = mid;
    else
      hi = mid;
    if (hi - lo < 1e-12 * std::max(1.0, hi)) break;
  }
  return 0.5 * (lo + hi);
}

RateEstimate estimate_rate(std::uint64_t events, double exposure, double confidence) {
  if (!(exposure > 0) || !std::isfinite(exposure))
    throw DomainError("exposure must be positive and finite");
  if (!(confidence > 0 && confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  const double alpha = 1.0 - confidence;
  RateEstimate est;
  est.events = events;
  est.exposure = exposure;
  est.confidence = confidence;
  est.rate = static_cast<double>(events) / exposure;
  // Garwood exact interval: [ G(alpha/2; k) , G(1-alpha/2; k+1) ] / T,
  // with G the Gamma(shape, rate=1) quantile and lo = 0 when k = 0.
  est.lo = events == 0
               ? 0.0
               : gamma_quantile(static_cast<double>(events), alpha / 2) / exposure;
  est.hi = gamma_quantile(static_cast<double>(events) + 1.0, 1.0 - alpha / 2) / exposure;
  return est;
}

namespace {

/// NaN-poisoning guard of the lifetime fit: an empty sample is unusable, and
/// a single NaN/inf/non-positive value would otherwise poison (or, with
/// RunningStats' non-finite exclusion, silently bias) the moments.
void require_positive_finite(const std::vector<double>& samples, const char* what) {
  if (samples.empty()) throw DomainError(std::string(what) + " needs >= 1 sample");
  for (double x : samples) {
    if (!std::isfinite(x) || !(x > 0))
      throw DomainError(std::string(what) + " requires positive finite samples");
  }
}

}  // namespace

ErlangFit fit_erlang(const std::vector<double>& samples) {
  require_positive_finite(samples, "erlang fit");
  RunningStats stats;
  for (double x : samples) stats.add(x);
  ErlangFit fit;
  fit.n = samples.size();
  fit.sample_mean = stats.mean();
  fit.sample_variance = stats.variance();
  // Moment matching divides by the sample variance; degenerate inputs (one
  // sample, or all samples equal) have none, and near-degenerate ones would
  // overflow the integer shape. Clamp to a defined shape and say why instead
  // of producing inf/NaN.
  const double cap = static_cast<double>(kDegenerateErlangShape);
  if (fit.n < 2) {
    fit.shape = kDegenerateErlangShape;
    fit.degenerate = true;
    fit.note = "single sample cannot identify a shape; clamped to " +
               std::to_string(kDegenerateErlangShape) + " phases";
  } else if (fit.sample_variance <= 0) {
    fit.shape = kDegenerateErlangShape;
    fit.degenerate = true;
    fit.note = "zero sample variance (all samples equal); clamped to " +
               std::to_string(kDegenerateErlangShape) + " phases";
  } else {
    const double raw = fit.sample_mean * fit.sample_mean / fit.sample_variance;
    if (raw >= cap + 0.5) {
      fit.shape = kDegenerateErlangShape;
      fit.degenerate = true;
      fit.note = "near-zero sample variance; shape clamped to " +
                 std::to_string(kDegenerateErlangShape) + " phases";
    } else {
      fit.shape = std::max(1, static_cast<int>(std::llround(raw)));
    }
  }
  fit.rate = static_cast<double>(fit.shape) / fit.sample_mean;
  return fit;
}

fmt::DegradationModel fit_degradation(const std::vector<DegradationSample>& samples) {
  if (samples.empty()) throw DomainError("degradation fit needs >= 1 sample");
  std::vector<double> ttf;
  RunningStats threshold_time;
  ttf.reserve(samples.size());
  for (const DegradationSample& s : samples) {
    if (!std::isfinite(s.time_to_threshold) || s.time_to_threshold < 0)
      throw DomainError("degradation fit requires finite non-negative threshold times");
    ttf.push_back(s.time_to_failure);
    threshold_time.add(s.time_to_threshold);
  }
  const ErlangFit fit = fit_erlang(ttf);
  // Expected time to reach phase k from new is (k-1)/rate; place the
  // threshold phase so that matches the observed mean (1-based, clamped).
  const int threshold =
      1 + static_cast<int>(std::llround(threshold_time.mean() * fit.rate));
  const int clamped = std::clamp(threshold, 1, fit.shape + 1);
  return fmt::DegradationModel::erlang(fit.shape, fit.mean(), clamped);
}

}  // namespace fmtree::data
