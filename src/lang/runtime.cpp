#include "lang/runtime.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fmtree::lang {

namespace {

/// Resolves one calendar's target list to leaf NodeIds: the named
/// components, or every inspectable leaf (ascending leaf order) under
/// `targets all`. Unknown or non-leaf names become L135/L136 diagnostics.
std::vector<fmt::NodeId> resolve_targets(const CompiledPolicy& policy,
                                         const Calendar& cal,
                                         const fmt::FaultMaintenanceTree& model,
                                         Diagnostics& diags) {
  std::vector<fmt::NodeId> out;
  if (cal.targets_all) {
    for (fmt::NodeId leaf : model.leaves())
      if (model.ebe(leaf).degradation.inspectable()) out.push_back(leaf);
    if (out.empty())
      diags.error("L136", {},
                  "calendar '" + cal.name +
                      "' targets all inspectable components, but the model has "
                      "none",
                  "give every-component policies an explicit 'targets' list");
    return out;
  }
  for (std::uint32_t slot : cal.target_slots) {
    const NameRef& ref = policy.name_refs[slot];
    const std::optional<fmt::NodeId> id = model.find(ref.name);
    if (!id) {
      diags.error("L135", ref.loc,
                  "unknown component '" + ref.name + "'",
                  "targets must name basic events of the model");
      continue;
    }
    const auto leaves = model.leaves();
    if (std::find(leaves.begin(), leaves.end(), *id) == leaves.end()) {
      diags.error("L136", ref.loc,
                  "'" + ref.name + "' is not a basic event",
                  "calendars visit components, not gates");
      continue;
    }
    out.push_back(*id);
  }
  return out;
}

/// Whether a calendar's rounds depend on the engine state alone: no seasonal
/// window, and no condition or spend amount of its statements reads the
/// clock or a budget (whose refills follow the clock).
bool time_invariant(const CompiledPolicy& policy, const Calendar& cal) {
  if (cal.window_cycle > 0) return false;
  const auto reads_clock = [&](std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t i = begin; i < end; ++i)
      if (policy.code[i].op == Op::PushTime || policy.code[i].op == Op::PushBudget)
        return true;
    return false;
  };
  const auto spend_reads_clock = [&](std::uint32_t begin, std::uint32_t end) {
    for (std::uint32_t a = begin; a < end; ++a) {
      const Action& act = policy.actions[a];
      if (act.kind == Action::Kind::Spend &&
          reads_clock(act.amount_begin, act.amount_end))
        return true;
    }
    return false;
  };
  for (std::uint32_t s = cal.stmts_begin; s < cal.stmts_end; ++s) {
    const Statement& stmt = policy.statements[s];
    if (reads_clock(stmt.cond_begin, stmt.cond_end) ||
        spend_reads_clock(stmt.then_begin, stmt.then_end) ||
        spend_reads_clock(stmt.else_begin, stmt.else_end))
      return false;
  }
  return true;
}

}  // namespace

double BoundPolicy::budget_available(std::uint32_t b, double now,
                                     const PolicyState& st) const {
  const Budget& budget = compiled->budgets[b];
  double total = budget.initial;
  if (budget.refill_period > 0 && budget.refill_amount > 0)
    total += budget.refill_amount * std::floor(now / budget.refill_period);
  return total - st.budget_spent[b];
}

void PolicyState::reset(const BoundPolicy& bp) {
  budget_spent.assign(bp.compiled->budgets.size(), 0.0);
  repaired_this_round.assign(bp.num_leaves, 0);
  repairs_this_round = 0;
}

void PolicyState::begin_round() {
  std::fill(repaired_this_round.begin(), repaired_this_round.end(),
            std::uint8_t{0});
  repairs_this_round = 0;
}

fmt::FaultMaintenanceTree apply_policy(const CompiledPolicy& policy,
                                       const fmt::FaultMaintenanceTree& model) {
  Diagnostics diags;
  fmt::FaultMaintenanceTree out = model;
  out.clear_inspections();
  for (const Calendar& cal : policy.calendars) {
    std::vector<fmt::NodeId> targets = resolve_targets(policy, cal, model, diags);
    if (targets.empty()) continue;  // resolve_targets already diagnosed
    fmt::InspectionModule module;
    module.name = cal.name;
    module.period = cal.period;
    module.first_at = cal.first_at;
    module.cost = cal.cost;
    module.targets = std::move(targets);
    module.detection_probability = 1.0;  // scripts model imperfection explicitly
    out.add_inspection(std::move(module));
  }
  if (diags.has_errors()) throw ModelErrors(diags.all());
  return out;
}

BoundPolicy bind_policy(const CompiledPolicy& policy,
                        const fmt::FaultMaintenanceTree& model) {
  Diagnostics diags;
  BoundPolicy bound;
  bound.compiled = &policy;
  bound.num_leaves = static_cast<std::uint32_t>(model.num_ebes());

  const auto leaf_index = [&](fmt::NodeId id) {
    return static_cast<std::uint32_t>(model.ebe_index(id));
  };

  bound.ref_leaf.reserve(policy.name_refs.size());
  for (const NameRef& ref : policy.name_refs) {
    const std::optional<fmt::NodeId> id = model.find(ref.name);
    const auto leaves = model.leaves();
    if (!id || std::find(leaves.begin(), leaves.end(), *id) == leaves.end()) {
      diags.error(id ? "L136" : "L135", ref.loc,
                  id ? "'" + ref.name + "' is not a basic event"
                     : "unknown component '" + ref.name + "'",
                  "scripts read and repair basic events of the model");
      bound.ref_leaf.push_back(0);
      continue;
    }
    bound.ref_leaf.push_back(leaf_index(*id));
  }

  bound.target_begin.push_back(0);
  for (const Calendar& cal : policy.calendars) {
    for (fmt::NodeId id : resolve_targets(policy, cal, model, diags))
      bound.calendar_targets.push_back(leaf_index(id));
    bound.target_begin.push_back(
        static_cast<std::uint32_t>(bound.calendar_targets.size()));
    bound.time_invariant.push_back(time_invariant(policy, cal) ? 1 : 0);
  }

  bound.leaf_threshold.reserve(model.num_ebes());
  bound.leaf_phases.reserve(model.num_ebes());
  for (const fmt::ExtendedBasicEvent& ebe : model.ebes()) {
    bound.leaf_threshold.push_back(
        static_cast<double>(ebe.degradation.threshold_phase()));
    bound.leaf_phases.push_back(static_cast<double>(ebe.degradation.phases()));
  }

  if (diags.has_errors()) throw ModelErrors(diags.all());
  return bound;
}

}  // namespace fmtree::lang
