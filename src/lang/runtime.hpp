// Executing a compiled policy inside the simulation engines.
//
// The executor-callback contract: lang::apply_policy transforms the model —
// it drops every built-in inspection module and adds one InspectionModule
// per script calendar (in calendar order, detection probability 1, first_at
// from the calendar offset), so the engines' existing event machinery
// schedules and times the visits. At each inspection event the engine then
// calls, instead of its built-in threshold sweep:
//
//   * round_active(bound, module, now)   — seasonal-window gate; an
//     out-of-window visit is silently skipped (no cost, no round), only the
//     next one is scheduled;
//   * run_round(bound, module, now, host, state) — books nothing itself;
//     evaluates the calendar's rule statements once per target component
//     (in target-list order), issues repairs through the engine-supplied
//     Host callbacks, and returns whether it acted (issued a repair or a
//     spend).
//
// A round that did not act left the engine and the PolicyState as they
// were. On a time-invariant calendar (BoundPolicy::time_invariant: no
// seasonal window, no `time` or `budget` read) every later round before the
// next other engine event therefore does not act either, so the kernel
// books those rounds in a tight loop without running them. Calendars that
// read the clock or a budget run every round.
//
// The Host is the engine adapter (a lang::LambdaHost over engine-local
// state): phase/failed/under_repair reads, and repair(leaf) performing the
// engine's own repair bookkeeping — cost accrual, timed-repair scheduling
// or immediate renewal — exactly as its built-in inspection path does.
// run_round guards every repair (failed, already under repair, already
// repaired this visit, crew cap) before calling host.repair, so for the
// plain rule `if phase >= threshold then repair;` the callback sequence is
// identical, call for call, to the built-in sweep — which is what makes a
// scripted periodic policy bit-identical to the built-in one.
//
// Policy evaluation draws no random numbers and mutates only PolicyState,
// so determinism at any thread count is inherited unchanged.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "fmt/fmtree.hpp"
#include "lang/policy.hpp"

namespace fmtree::lang {

struct PolicyState;

/// A CompiledPolicy resolved against one concrete model: name references
/// bound to leaf indices, per-calendar target lists materialized, and
/// per-leaf threshold/phase-count caches for the VM. Immutable after
/// bind_policy; shared across threads freely. Holds pointers into the
/// compiled policy, which must outlive it.
struct BoundPolicy {
  const CompiledPolicy* compiled = nullptr;
  std::uint32_t num_leaves = 0;
  std::vector<std::uint32_t> ref_leaf;  ///< leaf index per CompiledPolicy::name_refs
  /// CSR target lists: calendar c visits calendar_targets[target_begin[c] ..
  /// target_begin[c + 1]) in that order.
  std::vector<std::uint32_t> target_begin;
  std::vector<std::uint32_t> calendar_targets;
  std::vector<double> leaf_threshold;  ///< per leaf, as VM doubles
  std::vector<double> leaf_phases;     ///< per leaf
  /// Per calendar: 1 when a round's outcome depends on the engine state
  /// alone — no seasonal window, and no condition or spend amount reads
  /// `time` or a budget. Kept out of CompiledPolicy, so the policy
  /// fingerprint does not see it.
  std::vector<std::uint8_t> time_invariant;

  /// Remaining budget b at time `now` given what the trajectory has spent:
  /// initial + refill_amount * floor(now / refill_period) - spent. Lazy —
  /// refills need no simulation events.
  double budget_available(std::uint32_t b, double now,
                          const PolicyState& st) const;
};

/// Mutable per-trajectory policy execution state (one per kernel workspace,
/// one per reference trajectory).
struct PolicyState {
  std::vector<double> budget_spent;              ///< per budget
  std::vector<std::uint8_t> repaired_this_round; ///< per leaf
  std::uint32_t repairs_this_round = 0;
  std::vector<double> stack;  ///< VM operand stack, reused across evals

  /// Trajectory start: sizes the arrays and zeroes everything.
  void reset(const BoundPolicy& bp);
  /// Visit start: clears the per-round repair bookkeeping only.
  void begin_round();
};

/// Returns a copy of `model` with its inspection modules replaced by one
/// module per script calendar (the model transform described above).
/// Throws ModelErrors (L135/L136) when a target name does not resolve.
fmt::FaultMaintenanceTree apply_policy(const CompiledPolicy& policy,
                                       const fmt::FaultMaintenanceTree& model);

/// Resolves the compiled policy's name references against the (transformed)
/// model. Throws ModelErrors (L135/L136) on unknown names.
BoundPolicy bind_policy(const CompiledPolicy& policy,
                        const fmt::FaultMaintenanceTree& model);

/// Seasonal-window gate of calendar `cal` at time `now`.
inline bool round_active(const BoundPolicy& bp, std::size_t cal, double now) {
  const Calendar& c = bp.compiled->calendars[cal];
  if (!(c.window_cycle > 0)) return true;
  const double x = std::fmod(now, c.window_cycle);
  return x >= c.window_from && x < c.window_to;
}

/// Engine adapter assembled from four callables (see the Host contract in
/// the header comment). `phase` returns the leaf's current degradation
/// phase as a double (failed leaves sit at phases + 1).
template <class PhaseFn, class FailedFn, class UnderRepairFn, class RepairFn>
struct LambdaHost {
  PhaseFn phase_of;
  FailedFn failed_of;
  UnderRepairFn under_repair_of;
  RepairFn repair_of;

  double phase(std::uint32_t leaf) const { return phase_of(leaf); }
  bool failed(std::uint32_t leaf) const { return failed_of(leaf); }
  bool under_repair(std::uint32_t leaf) const { return under_repair_of(leaf); }
  void repair(std::uint32_t leaf) const { repair_of(leaf); }
};

template <class PhaseFn, class FailedFn, class UnderRepairFn, class RepairFn>
LambdaHost<PhaseFn, FailedFn, UnderRepairFn, RepairFn> make_host(
    PhaseFn phase, FailedFn failed, UnderRepairFn under_repair, RepairFn repair) {
  return {std::move(phase), std::move(failed), std::move(under_repair),
          std::move(repair)};
}

namespace detail {

inline std::uint32_t leaf_of(std::uint32_t arg, std::uint32_t self,
                             const BoundPolicy& bp) {
  return arg == kSelfLeaf ? self : bp.ref_leaf[arg];
}

/// Evaluates code [begin, end) with `self` as the component under
/// evaluation. Postfix over a reused operand stack; booleans are 0/1 and
/// non-zero is truthy. No RNG, no engine mutation.
template <class Host>
double eval_code(const BoundPolicy& bp, const Host& host, const PolicyState& st,
                 std::uint32_t self, double now, std::uint32_t begin,
                 std::uint32_t end, std::vector<double>& stack) {
  const CompiledPolicy& p = *bp.compiled;
  stack.clear();
  const auto pop = [&stack] {
    const double v = stack.back();
    stack.pop_back();
    return v;
  };
  for (std::uint32_t i = begin; i < end; ++i) {
    const Instr in = p.code[i];
    switch (in.op) {
      case Op::PushConst: stack.push_back(p.consts[in.arg]); break;
      case Op::PushTime: stack.push_back(now); break;
      case Op::PushRepairs:
        stack.push_back(static_cast<double>(st.repairs_this_round));
        break;
      case Op::PushPhase:
        stack.push_back(host.phase(leaf_of(in.arg, self, bp)));
        break;
      case Op::PushThreshold:
        stack.push_back(bp.leaf_threshold[leaf_of(in.arg, self, bp)]);
        break;
      case Op::PushPhases:
        stack.push_back(bp.leaf_phases[leaf_of(in.arg, self, bp)]);
        break;
      case Op::PushFailed:
        stack.push_back(host.failed(leaf_of(in.arg, self, bp)) ? 1.0 : 0.0);
        break;
      case Op::PushRepaired:
        stack.push_back(
            st.repaired_this_round[leaf_of(in.arg, self, bp)] != 0 ? 1.0 : 0.0);
        break;
      case Op::PushBudget:
        stack.push_back(bp.budget_available(in.arg, now, st));
        break;
      case Op::Neg: stack.back() = -stack.back(); break;
      case Op::Not: stack.back() = stack.back() == 0.0 ? 1.0 : 0.0; break;
      case Op::Add: { const double b = pop(); stack.back() += b; break; }
      case Op::Sub: { const double b = pop(); stack.back() -= b; break; }
      case Op::Mul: { const double b = pop(); stack.back() *= b; break; }
      case Op::Div: { const double b = pop(); stack.back() /= b; break; }
      case Op::Mod: {
        const double b = pop();
        stack.back() = std::fmod(stack.back(), b);
        break;
      }
      case Op::Less: { const double b = pop(); stack.back() = stack.back() < b; break; }
      case Op::LessEq: { const double b = pop(); stack.back() = stack.back() <= b; break; }
      case Op::Greater: { const double b = pop(); stack.back() = stack.back() > b; break; }
      case Op::GreaterEq: { const double b = pop(); stack.back() = stack.back() >= b; break; }
      case Op::Equal: { const double b = pop(); stack.back() = stack.back() == b; break; }
      case Op::NotEqual: { const double b = pop(); stack.back() = stack.back() != b; break; }
      case Op::And: {
        const double b = pop();
        stack.back() = (stack.back() != 0.0 && b != 0.0) ? 1.0 : 0.0;
        break;
      }
      case Op::Or: {
        const double b = pop();
        stack.back() = (stack.back() != 0.0 || b != 0.0) ? 1.0 : 0.0;
        break;
      }
    }
  }
  return stack.empty() ? 0.0 : stack.back();
}

}  // namespace detail

/// Executes one in-window visit of calendar `cal` at time `now`: for each
/// target component in list order, runs the rule statements, issuing
/// guarded repairs and budget spends. Books no visit cost itself — the
/// engine accrues the InspectionModule cost exactly as for built-in rounds.
/// Returns whether the round issued a repair or a spend.
template <class Host>
bool run_round(const BoundPolicy& bp, std::size_t cal, double now,
               const Host& host, PolicyState& st) {
  st.begin_round();
  const CompiledPolicy& p = *bp.compiled;
  const Calendar& c = p.calendars[cal];
  const std::uint32_t crew = p.crew;
  bool acted = false;
  for (std::uint32_t k = bp.target_begin[cal]; k < bp.target_begin[cal + 1]; ++k) {
    const std::uint32_t self = bp.calendar_targets[k];
    for (std::uint32_t s = c.stmts_begin; s < c.stmts_end; ++s) {
      const Statement& stmt = p.statements[s];
      bool take_then = true;
      if (stmt.cond_end > stmt.cond_begin)
        take_then = detail::eval_code(bp, host, st, self, now, stmt.cond_begin,
                                      stmt.cond_end, st.stack) != 0.0;
      const std::uint32_t a0 = take_then ? stmt.then_begin : stmt.else_begin;
      const std::uint32_t a1 = take_then ? stmt.then_end : stmt.else_end;
      for (std::uint32_t a = a0; a < a1; ++a) {
        const Action& act = p.actions[a];
        switch (act.kind) {
          case Action::Kind::RepairSelf:
          case Action::Kind::RepairLeaf: {
            const std::uint32_t leaf = act.kind == Action::Kind::RepairSelf
                                           ? self
                                           : bp.ref_leaf[act.leaf_slot];
            // Mirrors the built-in sweep's guards: failed components need
            // corrective maintenance, busy crews finish first; plus the
            // script-level idempotence and crew-capacity guards.
            if (host.failed(leaf) || host.under_repair(leaf)) break;
            if (st.repaired_this_round[leaf] != 0) break;
            if (crew != 0 && st.repairs_this_round >= crew) break;
            host.repair(leaf);
            st.repaired_this_round[leaf] = 1;
            ++st.repairs_this_round;
            acted = true;
            break;
          }
          case Action::Kind::Spend: {
            const double amount =
                detail::eval_code(bp, host, st, self, now, act.amount_begin,
                                  act.amount_end, st.stack);
            st.budget_spent[act.budget] += amount;
            acted = true;
            break;
          }
        }
      }
    }
  }
  return acted;
}

}  // namespace fmtree::lang
