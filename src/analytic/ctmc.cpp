#include "analytic/ctmc.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace fmtree::analytic {

Ctmc::Ctmc(std::size_t num_states) : num_states_(num_states), exit_(num_states, 0.0) {
  if (num_states == 0) throw DomainError("CTMC needs at least one state");
}

void Ctmc::add_transition(State from, State to, double rate) {
  if (from >= num_states_ || to >= num_states_)
    throw DomainError("CTMC transition endpoint out of range");
  if (from == to) throw DomainError("CTMC self-loops are not allowed");
  if (!(rate > 0) || !std::isfinite(rate))
    throw DomainError("CTMC transition rate must be positive and finite");
  from_.push_back(from);
  to_.push_back(to);
  rate_.push_back(rate);
  exit_[from] += rate;
}

double Ctmc::exit_rate(State s) const {
  if (s >= num_states_) throw DomainError("state out of range");
  return exit_[s];
}

CtmcEdge Ctmc::edge(std::size_t i) const {
  if (i >= from_.size()) throw DomainError("transition index out of range");
  return CtmcEdge{from_[i], to_[i], rate_[i]};
}

double Ctmc::uniformization_rate() const {
  const double max_exit = *std::max_element(exit_.begin(), exit_.end());
  // A margin above the max exit rate keeps the DTMC aperiodic; 1.02 is
  // conventional. Guard against all-absorbing chains (max_exit == 0).
  return max_exit > 0 ? 1.02 * max_exit : 1.0;
}

void Ctmc::dtmc_step(const std::vector<double>& v, std::vector<double>& out,
                     double lambda) const {
  out.assign(num_states_, 0.0);
  // P = I + Q/lambda: stay with prob 1 - exit/lambda, move with rate/lambda.
  for (std::size_t s = 0; s < num_states_; ++s)
    out[s] = v[s] * (1.0 - exit_[s] / lambda);
  for (std::size_t e = 0; e < from_.size(); ++e)
    out[to_[e]] += v[from_[e]] * (rate_[e] / lambda);
}

std::vector<double> poisson_weights(double lambda_t, double epsilon,
                                    std::uint64_t max_terms) {
  if (lambda_t < 0 || !std::isfinite(lambda_t))
    throw DomainError("poisson_weights requires finite lambda_t >= 0");
  if (lambda_t == 0) return {1.0};
  // Left/right truncation around the mode, computed in log space.
  const auto mode = static_cast<std::int64_t>(std::floor(lambda_t));
  const double log_pmf_mode = static_cast<double>(mode) * std::log(lambda_t) -
                              lambda_t - std::lgamma(static_cast<double>(mode) + 1.0);
  // Find right bound.
  std::vector<double> right;  // pmf from mode upward
  double log_p = log_pmf_mode;
  for (std::int64_t k = mode;; ++k) {
    const double p = std::exp(log_p);
    right.push_back(p);
    if (p < epsilon && k > mode + 2) break;
    if (static_cast<std::uint64_t>(k - mode) > max_terms)
      throw ResourceLimitError(
          "poisson series failed to converge",
          {.iterations = static_cast<std::uint64_t>(k - mode), .residual = p});
    log_p += std::log(lambda_t) - std::log(static_cast<double>(k) + 1.0);
  }
  // Left side from mode-1 down to 0 (or until negligible).
  std::vector<double> left;  // pmf from mode-1 downward
  log_p = log_pmf_mode;
  for (std::int64_t k = mode - 1; k >= 0; --k) {
    log_p += std::log(static_cast<double>(k) + 1.0) - std::log(lambda_t);
    const double p = std::exp(log_p);
    left.push_back(p);
    if (p < epsilon && static_cast<std::int64_t>(left.size()) > 2) break;
  }
  const auto first_k = mode - static_cast<std::int64_t>(left.size());
  std::vector<double> pmf(static_cast<std::size_t>(first_k), 0.0);
  pmf.reserve(static_cast<std::size_t>(first_k) + left.size() + right.size());
  for (auto it = left.rbegin(); it != left.rend(); ++it) pmf.push_back(*it);
  for (double p : right) pmf.push_back(p);
  // Normalize the truncated mass to 1 to keep distributions stochastic.
  double total = 0;
  for (double p : pmf) total += p;
  if (total > 0)
    for (double& p : pmf) p /= total;
  return pmf;
}

void throw_if_stopped(const smc::RunControl* control, const char* what,
                      const ResourceLimitError::Progress& progress) {
  if (control != nullptr && control->should_stop(0) != smc::StopReason::None)
    throw ResourceLimitError(std::string(what) + " interrupted", progress);
}

std::vector<double> Ctmc::transient(const std::vector<double>& initial, double t,
                                    double epsilon,
                                    const smc::RunControl* control) const {
  if (initial.size() != num_states_)
    throw DomainError("initial distribution size does not match state count");
  if (t < 0) throw DomainError("time must be >= 0");
  if (t == 0) return initial;
  const double lambda = uniformization_rate();
  const std::vector<double> pmf = poisson_weights(lambda * t, epsilon);

  std::vector<double> v = initial;
  std::vector<double> next(num_states_);
  std::vector<double> result(num_states_, 0.0);
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    throw_if_stopped(control, "transient", {.iterations = k, .states = num_states_});
    if (pmf[k] > 0)
      for (std::size_t s = 0; s < num_states_; ++s) result[s] += pmf[k] * v[s];
    if (k + 1 < pmf.size()) {
      dtmc_step(v, next, lambda);
      v.swap(next);
    }
  }
  return result;
}

double Ctmc::transient_probability(const std::vector<double>& initial,
                                   const std::vector<bool>& targets, double t,
                                   double epsilon, const smc::RunControl* control) const {
  if (targets.size() != num_states_)
    throw DomainError("target vector size does not match state count");
  const std::vector<double> pi = transient(initial, t, epsilon, control);
  double p = 0;
  for (std::size_t s = 0; s < num_states_; ++s)
    if (targets[s]) p += pi[s];
  return p;
}

double Ctmc::accumulated_reward(const std::vector<double>& initial,
                                const std::vector<double>& reward, double t,
                                double epsilon, const smc::RunControl* control) const {
  if (initial.size() != num_states_ || reward.size() != num_states_)
    throw DomainError("vector size does not match state count");
  if (t < 0) throw DomainError("time must be >= 0");
  if (t == 0) return 0.0;
  const double lambda = uniformization_rate();
  const std::vector<double> pmf = poisson_weights(lambda * t, epsilon);

  // integral_0^t pois(k; lambda u) du = P(Poisson(lambda t) >= k+1) / lambda
  //                                   = (1 - F(k)) / lambda.
  std::vector<double> tail(pmf.size());
  double cum = 0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    cum += pmf[k];
    tail[k] = std::max(0.0, 1.0 - cum);
  }

  std::vector<double> v = initial;
  std::vector<double> next(num_states_);
  double acc = 0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    throw_if_stopped(control, "accumulated_reward",
                     {.iterations = k, .states = num_states_});
    double rv = 0;
    for (std::size_t s = 0; s < num_states_; ++s) rv += reward[s] * v[s];
    acc += tail[k] / lambda * rv;
    if (k + 1 < pmf.size()) {
      dtmc_step(v, next, lambda);
      v.swap(next);
    }
  }
  return acc;
}

}  // namespace fmtree::analytic
