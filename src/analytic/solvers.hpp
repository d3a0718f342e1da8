// Linear-algebraic CTMC queries complementing transient uniformization:
// expected hitting times, and the exact mean-time-to-failure oracle for
// Markovian FMTs.
#pragma once

#include "analytic/ctmc.hpp"
#include "fmt/fmtree.hpp"
#include "obs/telemetry.hpp"
#include "smc/run_control.hpp"

namespace fmtree::analytic {

/// Iterative-solver options.
struct SolverOptions {
  /// Optional stop handle, polled every sweep and by the CTMC build: a stop
  /// raises ResourceLimitError carrying the progress made.
  const smc::RunControl* control = nullptr;
  /// Iteration/residual progress snapshots, solver.* metrics and spans.
  obs::Telemetry telemetry;
  double tolerance = 1e-12;      ///< max-norm change per sweep
  std::size_t max_iterations = 200000;
};

/// Expected time to reach the `absorbing` set from `initial`
/// (E[inf{t : X_t in absorbing}]), by Gauss–Seidel on the hitting-time
/// equations. Throws DomainError if a non-absorbing state cannot reach the
/// set (infinite expectation) or on non-convergence.
double mean_time_to_absorption(const Ctmc& chain, const std::vector<double>& initial,
                               const std::vector<bool>& absorbing,
                               const SolverOptions& opts = {});

/// Exact mean time to first system failure of a Markovian FMT (no periodic
/// maintenance, exponential phases).
double exact_mttf(const fmt::FaultMaintenanceTree& model,
                  std::size_t max_states = 1u << 20, const SolverOptions& opts = {});

}  // namespace fmtree::analytic
