#include "analytic/solvers.hpp"

#include <cmath>
#include <deque>

#include "analytic/fmt2ctmc.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "smc/run_control.hpp"
#include "util/error.hpp"

namespace fmtree::analytic {

namespace {

/// Shared per-sweep telemetry of the iterative solvers: a cooperative-stop
/// poll every sweep and an iteration/residual progress snapshot every
/// `kStride` sweeps. Pure observation except for the stop, which raises
/// ResourceLimitError carrying the progress made — never a partial result.
constexpr std::size_t kStride = 256;

void poll_iteration(const SolverOptions& opts, const char* what, std::size_t it,
                    double residual, std::size_t states) {
  throw_if_stopped(opts.control, what,
                   {.iterations = it + 1, .residual = residual, .states = states});
  if ((it + 1) % kStride != 0) return;
  if (obs::ProgressReporter* progress = opts.telemetry.progress;
      progress != nullptr && progress->due()) {
    obs::Progress p;
    p.phase = "solve";
    p.done = it + 1;
    p.total = opts.max_iterations;
    p.residual = residual;
    progress->update(p);
  }
}

void record_convergence(const SolverOptions& opts, std::size_t iterations,
                        double residual) {
  if (obs::MetricsRegistry* metrics = opts.telemetry.metrics) {
    metrics->add(obs::Metric::SolverIterations, iterations);
    metrics->set(obs::Metric::SolverResidual, residual);
  }
}

}  // namespace

double mean_time_to_absorption(const Ctmc& chain, const std::vector<double>& initial,
                               const std::vector<bool>& absorbing,
                               const SolverOptions& opts) {
  const std::size_t n = chain.num_states();
  if (initial.size() != n || absorbing.size() != n)
    throw DomainError("vector size does not match state count");
  auto solve_span = obs::maybe_span(opts.telemetry.tracer, "solve");

  // Group edges per source and build reverse adjacency for reachability.
  std::vector<std::vector<CtmcEdge>> out(n);
  std::vector<std::vector<State>> reverse(n);
  for (std::size_t i = 0; i < chain.num_transitions(); ++i) {
    const CtmcEdge e = chain.edge(i);
    out[e.from].push_back(e);
    reverse[e.to].push_back(e.from);
  }

  // Any transient state (with initial mass) that cannot reach the absorbing
  // set makes the expectation infinite.
  std::vector<bool> can_reach(n, false);
  std::deque<State> queue;
  for (State s = 0; s < n; ++s) {
    if (absorbing[s]) {
      can_reach[s] = true;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const State s = queue.front();
    queue.pop_front();
    for (State p : reverse[s]) {
      if (!can_reach[p]) {
        can_reach[p] = true;
        queue.push_back(p);
      }
    }
  }
  for (State s = 0; s < n; ++s) {
    if (!absorbing[s] && !can_reach[s] && initial[s] > 0)
      throw DomainError("initial state cannot reach the absorbing set: MTTF infinite");
  }

  // Hitting-time equations, h = 0 on the absorbing set:
  //   h_s = (1 + sum_{s->s'} rate * h_{s'}) / exit_s   for transient s.
  // Gauss–Seidel sweeps converge monotonically from h = 0.
  std::vector<double> h(n, 0.0);
  double delta = 0;
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    delta = 0;
    for (State s = 0; s < n; ++s) {
      if (absorbing[s] || !can_reach[s]) continue;
      const double exit = chain.exit_rate(s);
      if (exit <= 0)
        throw DomainError("transient state with zero exit rate: MTTF infinite");
      double sum_rate_h = 0;
      for (const CtmcEdge& e : out[s])
        if (!absorbing[e.to]) sum_rate_h += e.rate * h[e.to];
      const double fresh = (1.0 + sum_rate_h) / exit;
      delta = std::max(delta, std::fabs(fresh - h[s]));
      h[s] = fresh;
    }
    if (delta < opts.tolerance) {
      double mttf = 0;
      for (State s = 0; s < n; ++s) mttf += initial[s] * h[s];
      record_convergence(opts, it + 1, delta);
      return mttf;
    }
    poll_iteration(opts, "mean_time_to_absorption", it, delta, n);
  }
  throw ResourceLimitError(
      "mean_time_to_absorption failed to converge",
      {.iterations = opts.max_iterations, .residual = delta, .states = n});
}

double exact_mttf(const fmt::FaultMaintenanceTree& model, std::size_t max_states,
                  const SolverOptions& opts) {
  auto build_span = obs::maybe_span(opts.telemetry.tracer, "build");
  const MarkovFmt m =
      fmt_to_ctmc(model, FailureTreatment::Absorbing, max_states, opts.control);
  build_span.close();
  if (obs::MetricsRegistry* metrics = opts.telemetry.metrics)
    metrics->set(obs::Metric::SolverStates, static_cast<double>(m.chain.num_states()));
  return mean_time_to_absorption(m.chain, m.initial, m.failed, opts);
}

}  // namespace fmtree::analytic
