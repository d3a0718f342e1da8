// sim::Reference — a deliberately naive simulator of one trajectory, the
// test oracle of the trajectory kernel (BatchExecutor).
//
// It implements the semantics documented on the kernel in the most direct
// way, so the two share nothing but the sojourn sampler:
//  * pending events sit in an ordered set keyed by (time, slot); slots are
//    numbered like the kernel's clock row (leaves, inspections,
//    replacements, corrective renewal), so simultaneous events break ties
//    the same way;
//  * gates are evaluated from scratch with ft::FaultTree::evaluate;
//  * every event ends with the full settle: FDEP fixpoint, then rates, then
//    the top-event edge.
// It draws from CounterStream(seed, index) in the kernel's order — initial
// sojourns leaf by leaf, then one draw per scheduled sojourn or Bernoulli
// trial — so for every (seed, index) the two must agree bit for bit on every
// TrajectoryResult field. It also records per-event Traces. Slow on purpose;
// tests only.
#pragma once

#include <cstdint>

#include "fmt/fmtree.hpp"
#include "sim/batch_executor.hpp"
#include "sim/sampler.hpp"
#include "sim/trace.hpp"

namespace fmtree::sim {

class Reference {
public:
  /// Validates the model. The model must outlive the simulator.
  explicit Reference(const fmt::FaultMaintenanceTree& model);

  /// Simulates trajectory `index` under `seed`; appends its events to
  /// `trace` when one is given.
  TrajectoryResult run(std::uint64_t seed, std::uint64_t index, const SimOptions& opts,
                       Trace* trace = nullptr) const;

private:
  const fmt::FaultMaintenanceTree& model_;
  SojournSampler sampler_;
};

}  // namespace fmtree::sim
