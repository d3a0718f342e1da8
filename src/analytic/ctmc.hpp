// Sparse continuous-time Markov chains with transient analysis by
// uniformization (Jensen's method). Serves as the exact oracle against which
// the statistical model checker is validated on Markovian submodels.
#pragma once

#include <cstdint>
#include <vector>

#include "smc/run_control.hpp"
#include "util/error.hpp"

namespace fmtree::analytic {

using State = std::uint32_t;

/// One transition of the sparse generator.
struct CtmcEdge {
  State from = 0;
  State to = 0;
  double rate = 0.0;
};

class Ctmc {
public:
  explicit Ctmc(std::size_t num_states);

  /// Adds a transition. Self-loops are rejected; parallel transitions
  /// accumulate.
  void add_transition(State from, State to, double rate);

  std::size_t num_states() const noexcept { return num_states_; }
  std::size_t num_transitions() const noexcept { return from_.size(); }

  /// Total exit rate of a state.
  double exit_rate(State s) const;

  /// The i-th transition (insertion order). Used by the linear solvers.
  CtmcEdge edge(std::size_t i) const;

  /// Transient state distribution pi(t) from `initial`, truncating the
  /// Poisson series once the tail mass is below `epsilon`. Each step polls
  /// `control` (see throw_if_stopped).
  std::vector<double> transient(const std::vector<double>& initial, double t,
                                double epsilon = 1e-12,
                                const smc::RunControl* control = nullptr) const;

  /// P(in one of `targets` at time t).
  double transient_probability(const std::vector<double>& initial,
                               const std::vector<bool>& targets, double t,
                               double epsilon = 1e-12,
                               const smc::RunControl* control = nullptr) const;

  /// Expected accumulated reward integral_0^t reward . pi(u) du for a
  /// state-indexed reward-rate vector (e.g. failure intensity -> expected
  /// number of failures; indicator of up states -> expected uptime).
  double accumulated_reward(const std::vector<double>& initial,
                            const std::vector<double>& reward, double t,
                            double epsilon = 1e-12,
                            const smc::RunControl* control = nullptr) const;

private:
  /// One step of the uniformized DTMC: out = v P with P = I + Q/lambda.
  void dtmc_step(const std::vector<double>& v, std::vector<double>& out,
                 double lambda) const;
  double uniformization_rate() const;

  std::size_t num_states_;
  std::vector<State> from_;
  std::vector<State> to_;
  std::vector<double> rate_;
  std::vector<double> exit_;
};

/// Poisson(lambda_t) probabilities pmf[0..K] with K chosen so the truncated
/// tail is below epsilon; numerically stable for large lambda_t (computed
/// around the mode in log space). Exposed for tests. Throws
/// ResourceLimitError (carrying the number of terms expanded) if the series
/// has not converged after `max_terms` terms past the mode.
std::vector<double> poisson_weights(double lambda_t, double epsilon,
                                    std::uint64_t max_terms = 20'000'000);

/// Throws ResourceLimitError ("<what> interrupted", carrying `progress`) once
/// `control`, if any, says stop. The CTMC builds and solves poll it between
/// steps, so a stopped query returns no partial value.
void throw_if_stopped(const smc::RunControl* control, const char* what,
                      const ResourceLimitError::Progress& progress);

}  // namespace fmtree::analytic
