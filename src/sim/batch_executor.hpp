// The trajectory kernel: one trajectory of the fault-maintenance-tree
// semantics per call. Every Monte-Carlo result of the library comes from
// here; sim::Reference re-implements the same semantics naively and is held
// to it bit for bit by the tests.
//
// Semantics:
//  * each leaf degrades through its phases; phase sojourn times are sampled
//    from the leaf's DegradationModel and divided by the leaf's current
//    acceleration factor;
//  * RDEP: while a rate dependency's trigger holds, its dependents' factors
//    are multiplied in; a factor change mid-phase rescales the *remaining*
//    sojourn time (remaining' = remaining * old/new). A spare-pool member
//    that is not the pool's active leaf runs at the pool's dormancy factor;
//    a factor of zero freezes the remaining time until reactivation;
//  * FDEP: once a trigger holds, its dependents fail instantly (iterated to
//    the monotone fixpoint);
//  * inspections fire periodically; each non-failed target at/past its
//    threshold phase and not under repair is repaired (with probability p
//    on imperfect inspections). A repair renews the leaf, or pauses it for
//    the repair duration and then renews it. Failed leaves are not
//    repairable by inspection. A scripted policy replaces the threshold
//    sweep by its compiled rules;
//  * replacements fire periodically and renew their targets unconditionally
//    (including failed ones);
//  * when the top event rises, a failure is counted and attributed to the
//    leaf whose failure raised it; if corrective maintenance is enabled, the
//    whole system is renewed `delay` time units later. Time with the top
//    event true is downtime;
//  * all costs accrue into a CostBreakdown, and discounted at rate r into
//    a second one;
//  * simultaneous events fire in clock-row order (see BatchWorkspace::clock):
//    leaves by index, then inspections, replacements, corrective renewal.
//    Events at exactly the horizon still fire;
//  * after each event the state settles: FDEP fixpoint, then acceleration
//    factors, then the top-event edge.
//
// Randomness is counter-based (CounterStream, Philox-4x32-10): draw i of
// trajectory t under seed s is the pure function philox(s, (t, i)). A
// trajectory draws its initial sojourns leaf by leaf, then one draw per
// scheduled sojourn and per imperfect-inspection Bernoulli trial, so its
// stream depends only on its own event sequence — never on which chunk or
// thread ran it, or on what its workspace ran before. Reports are
// bit-identical at any thread count and chunking by construction.
//
// Execution: the mutable state of the trajectory lives in a reusable
// workspace of flat per-leaf rows (phase, acceleration, ...) and one
// next-event clock row, so
//  * event selection is a branch-free min-scan over the clock row —
//    cancellation is a plain store;
//  * sojourns come from flat per-(leaf, phase) sampler rows (SojournSampler);
//  * gates are evaluated incrementally (GateEvaluator), so a leaf flip
//    costs O(changed region), and events that cannot change a failure flag
//    (phase advances, repairs, inspections) skip the FDEP and top-event
//    parts of the settle, which they provably leave unchanged;
//  * idle inspection rounds fast-forward. A built-in round is idle when no
//    target is eligible (working, not under repair, at or past its
//    threshold phase); a round that missed an eligible target drew a number
//    and is not idle. A scripted round is idle when run_round neither
//    repaired nor spent and its calendar is time-invariant
//    (lang::BoundPolicy::time_invariant). An idle round changes no state,
//    so every later round of its module before the next other clock is
//    idle too: the kernel books them in a tight loop, with the min-scan's
//    tie order, the same cost additions and the same repeated `t + period`
//    clock. They still count in `inspections` and `events` (and so in
//    smc.events), so no result bit moves; sim::Reference stays naive and
//    runs each round as an event. A period of at most half an ulp of the
//    horizon, which could stop the clock, is rejected with a DomainError.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fmt/fmtree.hpp"
#include "lang/runtime.hpp"
#include "sim/gate_eval.hpp"
#include "sim/sampler.hpp"

namespace fmtree::sim {

/// One system-level failure during a trajectory.
struct FailureRecord {
  double time = 0.0;
  /// Leaf index (model.leaves() order) whose phase transition triggered the
  /// top event — the proximate cause used for incident attribution.
  std::uint32_t cause_leaf = 0;
};

struct TrajectoryResult {
  double horizon = 0.0;
  /// Time of the first top-event failure; +infinity if none before horizon.
  double first_failure_time = std::numeric_limits<double>::infinity();
  std::uint64_t failures = 0;
  double downtime = 0.0;
  fmt::CostBreakdown cost;
  /// Net-present-value costs: each accrual weighted by exp(-r * t) with
  /// r = SimOptions::discount_rate. Equals `cost` when the rate is zero.
  fmt::CostBreakdown discounted_cost;
  std::uint64_t inspections = 0;   ///< inspection rounds performed
  std::uint64_t repairs = 0;       ///< condition-based repair actions
  std::uint64_t replacements = 0;  ///< planned replacement rounds
  std::uint64_t events = 0;        ///< discrete events processed (perf metric)
  /// Per-leaf count of condition-based repairs (model.leaves() order).
  std::vector<std::uint64_t> repairs_per_leaf;
  /// Per-leaf count of system failures attributed to the leaf.
  std::vector<std::uint64_t> failures_per_leaf;
  /// Filled when SimOptions::record_failure_log is set.
  std::vector<FailureRecord> failure_log;

  bool survived() const noexcept {
    return first_failure_time > horizon;
  }
};

/// Per-run simulator options, read by the kernel and sim::Reference. Stream
/// identity always comes from the (seed, index) pair handed to run().
struct SimOptions {
  /// Simulated time span (the batch layers set it from their own settings).
  double horizon = 1.0;
  bool record_failure_log = false;
  /// Continuous discount rate r for net-present-value cost accounting:
  /// a cost c at time t contributes c * exp(-r t) to discounted_cost.
  double discount_rate = 0.0;
  /// Scripted maintenance policy bound to *this simulator's model* (which
  /// must already be the lang::apply_policy transform of the original).
  /// When set, inspection events run the compiled rules through the
  /// executor-callback host instead of the built-in threshold sweep.
  /// The BoundPolicy (and the CompiledPolicy it references) must outlive
  /// every run. nullptr = built-in semantics.
  const lang::BoundPolicy* bound_policy = nullptr;
};

/// All mutable state of one trajectory, reusable across trajectories (one
/// per worker thread): the per-leaf rows, the clock row, the gate state and
/// the policy VM state. A workspace carries nothing from one trajectory to
/// the next and may be handed to executors of different models — every run
/// resizes it to fit.
struct BatchWorkspace {
  // Per-leaf rows: field[leaf].
  std::vector<std::int32_t> phase;
  std::vector<double> accel;
  std::vector<double> frozen_remaining;  // natural-rate time left while accel == 0
  std::vector<std::uint8_t> leaf_failed;
  std::vector<std::uint8_t> under_repair;
  /// Candidate-clock row of length L + Mi + Mr + 1: next event time per leaf
  /// ([0, L): phase transition, or repair completion while under_repair;
  /// +infinity when failed or frozen), per inspection module ([L, L+Mi)),
  /// per replacement module ([L+Mi, L+Mi+Mr)), and the pending corrective
  /// renewal (last slot; +infinity = none). One contiguous row means event
  /// selection is a single min-scan.
  std::vector<double> clock;
  GateEvaluator::State gates;
  /// Scripted-policy VM state (reset only when a policy runs).
  lang::PolicyState policy;
};

/// Executes trajectories of one FMT. Immutable after construction; run() is
/// const and re-entrant, so one instance is shared across threads (each
/// thread owning its BatchWorkspace).
class BatchExecutor {
public:
  /// Validates the model and compiles it into flat tables. The model must
  /// outlive the executor.
  explicit BatchExecutor(const fmt::FaultMaintenanceTree& model);

  /// Simulates trajectory `index` on CounterStream(seed, index) into
  /// `result`, which it resets first (its vectors keep their capacity).
  /// Honors horizon, discount_rate, record_failure_log and bound_policy from
  /// `opts`.
  void run(std::uint64_t seed, std::uint64_t index, const SimOptions& opts,
           BatchWorkspace& ws, TrajectoryResult& result) const;

  const fmt::FaultMaintenanceTree& model() const noexcept { return model_; }

private:
  /// Hot-loop form of one rate dependency (no strings, ids pre-resolved).
  struct RdepInfo {
    std::uint32_t trigger_node = 0;
    std::uint32_t trigger_leaf = 0;  ///< valid iff trigger_phase >= 1
    std::int32_t trigger_phase = 0;
    double factor = 1.0;
  };

  struct InspectionInfo {
    double period = 1.0;
    double first_at = 1.0;
    double cost = 0.0;
    double detection_probability = 1.0;
    std::uint32_t targets_begin = 0, targets_end = 0;  ///< into insp_targets_
  };

  struct ReplacementInfo {
    double period = 1.0;
    double first_at = 1.0;
    double cost = 0.0;
    std::uint32_t targets_begin = 0, targets_end = 0;  ///< into repl_targets_
  };

  const fmt::FaultMaintenanceTree& model_;
  GateEvaluator eval_;
  SojournSampler sampler_;
  std::uint32_t top_node_ = 0;
  std::uint32_t num_leaves_ = 0;

  std::vector<std::int32_t> num_phases_;  // per leaf
  std::vector<std::int32_t> threshold_;   // per leaf: inspection threshold phase
  std::vector<double> repair_cost_;       // per leaf
  std::vector<double> repair_duration_;   // per leaf

  std::vector<InspectionInfo> inspections_;
  std::vector<std::uint32_t> insp_targets_;
  std::vector<ReplacementInfo> replacements_;
  std::vector<std::uint32_t> repl_targets_;

  // CSR: rdep indices watching each leaf.
  std::vector<std::uint32_t> rdep_begin_;
  std::vector<std::uint32_t> rdep_edges_;
  std::vector<RdepInfo> rdep_info_;

  std::vector<std::int32_t> spare_of_leaf_;  // spare-spec index, -1 = none
  std::vector<std::uint32_t> spare_begin_;   // CSR over spare_children_
  std::vector<std::uint32_t> spare_children_;
  std::vector<double> spare_dormancy_;

  /// Leaves whose acceleration factor can ever differ from 1 — the only
  /// ones update_rates visits (RDEP targets and spare-pool members).
  std::vector<std::uint32_t> rate_leaves_;

  std::vector<std::uint32_t> fdep_trigger_node_;
  std::vector<std::uint32_t> fdep_begin_;  // CSR over fdep_dependents_
  std::vector<std::uint32_t> fdep_dependents_;

  // Corrective policy, denormalized.
  bool corrective_enabled_ = false;
  double corrective_delay_ = 0.0;
  double corrective_cost_ = 0.0;
  double downtime_cost_rate_ = 0.0;
};

}  // namespace fmtree::sim
