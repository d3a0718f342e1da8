// The maintenance-policy language (.mpl) and its compiled form.
//
// A script describes a maintenance scenario for a fault maintenance tree:
//
//   policy "quarterly-cbm";
//
//   budget works = 600 refill 600 every 1;  # monetary pool, refilled yearly
//   crew 2;                                 # at most 2 repairs per visit
//
//   calendar quarterly every 0.25 offset 0.25 cost 35;
//   calendar summer every 0.25 cost 20 window 0.25..0.75 of 1
//     targets lipping, joint_batter;
//
//   rule quarterly {
//     if phase >= threshold then repair;
//     if repairs > 0 and phase >= threshold - 1 then repair;  # opportunistic
//   }
//
// Each `calendar` is a periodic site visit (optionally restricted to a
// seasonal window of a repeating cycle); its `rule` block runs once per
// target component per visit, with `phase`/`threshold`/`phases`/`failed`/
// `repaired` referring to the component under evaluation, `repairs` to the
// actions already taken this visit, and `phase(name)`-style functions
// reading any named component. Actions: `repair` (the current component),
// `repair(name)`, and `spend(budget, amount)`.
//
// Scripts compile to a CompiledPolicy — flat postfix instruction code plus
// calendar/budget/action tables, no AST — which the simulation engines
// execute at inspection events (see lang/runtime.hpp). The compiled form
// also carries the policy's cache fingerprint ("fmtree.policy/v1" over the
// compiled tables, not the source text), so reformatting a script preserves
// result-cache keys while any semantic change busts them.
//
// Stable diagnostic codes (DESIGN.md, "Policy language"):
//   L110-L112  lexical     (bad character, unterminated string, bad number:
//                           the lexer of ft/lexer.hpp under ft::kPolicyText)
//   L120-L122  syntax      (unexpected token, unknown statement, bad expression)
//   L130-L136  semantic    (unknown calendar/budget, duplicates, bad values,
//                           unknown component at bind time)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/diagnostics.hpp"
#include "util/fingerprint.hpp"

namespace fmtree::lang {

/// Postfix VM opcodes. Operands are doubles; booleans are 0.0 / 1.0 and any
/// non-zero value is truthy. Leaf-reading ops take kSelfLeaf (the component
/// the rule is evaluating) or an index into CompiledPolicy::name_refs.
enum class Op : std::uint8_t {
  PushConst,      ///< arg = index into consts
  PushTime,       ///< current simulation time
  PushRepairs,    ///< repairs performed so far this visit
  PushPhase,      ///< degradation phase of a leaf (failed = phases + 1)
  PushThreshold,  ///< inspection threshold phase of a leaf
  PushPhases,     ///< number of degradation phases of a leaf
  PushFailed,     ///< 1.0 iff the leaf has failed
  PushRepaired,   ///< 1.0 iff the leaf was repaired earlier this visit
  PushBudget,     ///< arg = budget index; remaining budget at current time
  Neg,
  Add,
  Sub,
  Mul,
  Div,
  Mod,  ///< fmod(a, b) — the `mod(a, b)` builtin
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Equal,
  NotEqual,
  And,
  Or,
  Not,
};

/// Sentinel `arg` of leaf-reading ops: the component under evaluation.
inline constexpr std::uint32_t kSelfLeaf = 0xffffffffu;

struct Instr {
  Op op = Op::PushConst;
  std::uint32_t arg = 0;
};

/// A by-name reference to a model component, resolved at bind time
/// (lang::bind_policy). The location points at the name in the script for
/// bind-time diagnostics.
struct NameRef {
  std::string name;
  SourceLocation loc;
};

/// One action of a rule statement.
struct Action {
  enum class Kind : std::uint8_t {
    RepairSelf,  ///< `repair` — repair the component under evaluation
    RepairLeaf,  ///< `repair(name)` — leaf_slot indexes name_refs
    Spend,       ///< `spend(budget, amount)` — amount is a code range
  };
  Kind kind = Kind::RepairSelf;
  std::uint32_t leaf_slot = 0;
  std::uint32_t budget = 0;
  std::uint32_t amount_begin = 0, amount_end = 0;  ///< into code
};

/// One rule statement: `if cond then actions [else actions];` or a bare
/// action list (cond range empty). Ranges index CompiledPolicy::code and
/// CompiledPolicy::actions.
struct Statement {
  std::uint32_t cond_begin = 0, cond_end = 0;
  std::uint32_t then_begin = 0, then_end = 0;
  std::uint32_t else_begin = 0, else_end = 0;
};

/// One periodic site visit. Compiles to one fmt::InspectionModule (in
/// calendar order, so inspection-module index == calendar index) via
/// lang::apply_policy; the engines run its statements instead of the
/// built-in threshold sweep.
struct Calendar {
  std::string name;
  double period = 1.0;
  double first_at = -1.0;  ///< `offset`; negative = use the period
  double cost = 0.0;       ///< cost per (in-window) visit
  /// Seasonal window: the visit happens only when fmod(time, window_cycle)
  /// lies in [window_from, window_to). window_cycle <= 0 = no window.
  double window_from = 0.0, window_to = 0.0, window_cycle = 0.0;
  bool targets_all = true;  ///< all inspectable components, ascending order
  std::vector<std::uint32_t> target_slots;  ///< into name_refs (unless all)
  std::uint32_t stmts_begin = 0, stmts_end = 0;  ///< into statements
};

/// A named spending counter. Available at time t =
/// initial + refill_amount * floor(t / refill_period) - spent so far; the
/// refill needs no simulation events. Budgets only constrain what the
/// script makes them constrain (via `budget(name)` guards).
struct Budget {
  std::string name;
  double initial = 0.0;
  double refill_amount = 0.0;
  double refill_period = 0.0;  ///< <= 0 = never refilled
};

/// A compiled policy script: flat tables, no AST, immutable after
/// compilation. Shared across threads freely; all mutable execution state
/// lives in lang::PolicyState.
struct CompiledPolicy {
  /// Display label from `policy "...";` — used for sweep-job labels, and
  /// deliberately excluded from the fingerprint (it affects no result bit).
  std::string name = "scripted";
  std::vector<Calendar> calendars;
  std::vector<Budget> budgets;
  std::uint32_t crew = 0;  ///< max repairs per visit; 0 = unlimited
  std::vector<Instr> code;
  std::vector<double> consts;
  std::vector<Statement> statements;
  std::vector<Action> actions;
  std::vector<NameRef> name_refs;
  /// "fmtree.policy/v1" digest of the compiled tables above (minus `name`),
  /// computed by compile_policy. Folded into the result-cache settings
  /// fingerprint, so scripted runs never share cache entries with built-in
  /// policies and semantically equal scripts share them regardless of
  /// formatting.
  Fingerprint fingerprint;
};

/// Compiles a script, collecting every problem into `diags` (error-recovery
/// parse: statements re-synchronize at ';'). Returns the compiled policy
/// only when no errors were recorded; warnings alone do not fail it.
std::optional<CompiledPolicy> compile_policy(const std::string& source,
                                             Diagnostics& diags);

/// Throwing convenience: compiles or throws ParseErrors with the full
/// diagnostic list of the pass.
CompiledPolicy compile_policy(const std::string& source);

}  // namespace fmtree::lang
