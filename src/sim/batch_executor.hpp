// The trajectory kernel: structure-of-arrays lane-block execution of the
// fault-maintenance-tree semantics. Every Monte-Carlo result of the library
// comes from here; sim::Reference re-implements the same semantics naively
// and is held to it bit for bit by the tests.
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
// stream depends only on its own event sequence — never on which lane,
// block, chunk or thread ran it. Reports are bit-identical at any thread
// count and chunking by construction.
//
// Execution: the mutable state of a block of lanes lives in flat
// per-field arrays (phase, acceleration, next-event clock, ...), so
//  * event selection is a branch-free min-scan over the lane's clock row —
//    cancellation is a plain store;
//  * sojourns come from flat per-(leaf, phase) sampler rows (SojournSampler)
//    and the initial firing times of a whole block are sampled in one pass;
//  * gates are evaluated incrementally (GateEvaluator, one State per lane),
//    so a leaf flip costs O(changed region), and events that cannot change
//    a failure flag (phase advances, repairs, inspections) skip the FDEP and
//    top-event parts of the settle, which they provably leave unchanged;
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

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "fmt/fmtree.hpp"
#include "lang/runtime.hpp"
#include "sim/gate_eval.hpp"
#include "sim/sampler.hpp"
#include "util/rng.hpp"

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

/// All mutable state of one block of lanes, reusable across blocks (one per
/// worker thread): SoA field arrays sized lanes x leaves, per-lane gate
/// states and counter streams, and the per-lane results. A workspace carries
/// nothing between blocks and may be handed to executors of different
/// models — every block resizes it to fit.
struct BatchWorkspace {
  // Lane-major SoA rows: field[lane * num_leaves + leaf].
  std::vector<std::int32_t> phase;
  std::vector<double> accel;
  std::vector<double> frozen_remaining;  // natural-rate time left while accel == 0
  std::vector<std::uint8_t> leaf_failed;
  std::vector<std::uint8_t> under_repair;
  /// Lane-major candidate-clock rows of length L + Mi + Mr + 1: next event
  /// time per leaf ([0, L): phase transition, or repair completion while
  /// under_repair; +infinity when failed or frozen), per inspection module
  /// ([L, L+Mi)), per replacement module ([L+Mi, L+Mi+Mr)), and the pending
  /// corrective renewal (last slot; +infinity = none). One contiguous row
  /// means event selection is a single min-scan.
  std::vector<double> clock;
  // Per-lane scalars.
  std::vector<std::uint8_t> system_down;
  std::vector<double> down_since;
  std::vector<GateEvaluator::State> gates;
  std::vector<CounterStream> rng;
  /// Per-lane scripted-policy VM states (sized only when a policy runs).
  std::vector<lang::PolicyState> policy;
  /// Per-lane trajectory results of the current block.
  std::vector<TrajectoryResult> results;
};

/// Executes trajectories of one FMT. Immutable after construction; run() is
/// const and re-entrant, so one instance is shared across threads (each
/// thread owning its BatchWorkspace).
class BatchExecutor {
public:
  /// Validates the model and compiles it into flat tables. The model must
  /// outlive the executor.
  explicit BatchExecutor(const fmt::FaultMaintenanceTree& model);

  /// Simulates trajectories [first, first + count), trajectory i on
  /// CounterStream(seed, i), one block of lanes at a time. After each block
  /// on_block(index, results) receives the index of the block's first
  /// trajectory and the block's results (valid until the next block; the
  /// callee may move from them). Returning false stops before the next
  /// block. Honors horizon, discount_rate, record_failure_log and
  /// bound_policy from `opts`.
  template <class OnBlock>
  void run(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
           const SimOptions& opts, BatchWorkspace& ws, OnBlock&& on_block) const {
    for (std::uint64_t done = 0; done < count;) {
      const auto n =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(kLanes, count - done));
      run_block(seed, first + done, n, opts, ws);
      if (!on_block(first + done, std::span<TrajectoryResult>(ws.results.data(), n)))
        return;
      done += n;
    }
  }

  const fmt::FaultMaintenanceTree& model() const noexcept { return model_; }

private:
  /// Lanes per block: wide enough to amortize block setup and keep the
  /// initial sampling pass long, small enough that a block's SoA state stays
  /// cache-resident. Execution-only — results do not depend on it.
  static constexpr std::uint32_t kLanes = 16;

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

  struct LaneContext;  // per-lane view over the workspace rows (in .cpp)

  /// Simulates the n <= kLanes trajectories [first, first + n) into
  /// ws.results[0..n).
  void run_block(std::uint64_t seed, std::uint64_t first, std::uint32_t n,
                 const SimOptions& opts, BatchWorkspace& ws) const;
  void simulate_lane(LaneContext& lane, const SimOptions& opts) const;

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
