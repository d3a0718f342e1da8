// Exact analysis of Markovian FMT submodels via CTMC construction.
//
// Applicable when every degradation phase is exponential and there are no
// periodic maintenance modules (their deterministic clocks leave the CTMC
// class — the reason the general FMT semantics needs simulation). The CTMC
// state is the phase vector of all leaves; RDEP acceleration multiplies
// phase rates in states where the trigger holds.
#pragma once

#include <cstdint>
#include <vector>

#include "analytic/ctmc.hpp"
#include "fmt/fmtree.hpp"

namespace fmtree::analytic {

/// A CTMC view of an FMT plus the vectors needed for the two exact queries.
struct MarkovFmt {
  Ctmc chain;
  std::vector<double> initial;            ///< point mass on the all-new state
  std::vector<bool> failed;               ///< states where the top event holds
  std::vector<double> failure_intensity;  ///< rate of failure transitions (renewal mode)
  std::size_t states = 0;
};

/// How system failure is treated in the CTMC.
enum class FailureTreatment {
  /// Failure states are absorbing: P(in a failed state at t) = unreliability.
  Absorbing,
  /// Failure transitions are redirected to the all-new state, mirroring
  /// corrective renewal with zero delay; the failure intensity reward then
  /// integrates to E[#failures in [0,t]].
  Renewal,
};

/// Builds the CTMC. Throws UnsupportedModelError if the model has periodic
/// maintenance or non-exponential phases, and ResourceLimitError (carrying
/// the number of states built) if the reachable state space exceeds
/// `max_states` — callers can catch the latter and fall back to simulation.
/// The state search polls `control` (see throw_if_stopped).
MarkovFmt fmt_to_ctmc(const fmt::FaultMaintenanceTree& model, FailureTreatment treatment,
                      std::size_t max_states = 1u << 20,
                      const smc::RunControl* control = nullptr);

/// Exact P(system failure occurs in [0, t]) ignoring repair of failures.
double exact_unreliability(const fmt::FaultMaintenanceTree& model, double t,
                           std::size_t max_states = 1u << 20,
                           const smc::RunControl* control = nullptr);

/// Exact E[#system failures in [0, t]] under corrective renewal with zero
/// delay. Requires model.corrective() enabled with delay == 0 so that the
/// simulator and this oracle implement the same semantics.
double exact_expected_failures(const fmt::FaultMaintenanceTree& model, double t,
                               std::size_t max_states = 1u << 20,
                               const smc::RunControl* control = nullptr);

}  // namespace fmtree::analytic
