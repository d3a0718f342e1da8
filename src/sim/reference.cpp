#include "sim/reference.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fmtree::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Reference::Reference(const fmt::FaultMaintenanceTree& model)
    : model_(model), sampler_(model) {
  model.validate();
}

TrajectoryResult Reference::run(std::uint64_t seed, std::uint64_t index,
                                const SimOptions& opts, Trace* trace) const {
  if (!(opts.horizon > 0)) throw DomainError("simulation horizon must be positive");
  if (opts.discount_rate < 0) throw DomainError("discount rate must be >= 0");
  const fmt::FaultMaintenanceTree& m = model_;
  const ft::FaultTree& tree = m.structure();
  const auto num_leaves = static_cast<std::uint32_t>(m.num_ebes());
  const std::uint32_t insp_base = num_leaves;
  const auto repl_base = insp_base + static_cast<std::uint32_t>(m.inspections().size());
  const auto corrective_slot =
      repl_base + static_cast<std::uint32_t>(m.replacements().size());
  const fmt::CorrectivePolicy& corrective = m.corrective();
  const lang::BoundPolicy* policy = opts.bound_policy;
  const double rate = opts.discount_rate;
  CounterStream rng(seed, index);

  TrajectoryResult result;
  result.horizon = opts.horizon;
  result.repairs_per_leaf.assign(num_leaves, 0);
  result.failures_per_leaf.assign(num_leaves, 0);

  std::vector<int> phase(num_leaves, 1);
  std::vector<double> accel(num_leaves, 1.0);
  std::vector<double> frozen(num_leaves, 0.0);  // natural-rate time left at accel 0
  std::vector<bool> failed(num_leaves, false);
  std::vector<bool> under_repair(num_leaves, false);
  std::vector<double> clock(corrective_slot + 1, kInf);  // pending time per slot
  std::set<std::pair<double, std::uint32_t>> pending;    // (time, slot)
  bool down = false;
  double down_since = 0.0;
  lang::PolicyState policy_state;
  if (policy) policy_state.reset(*policy);

  const auto record = [&](double now, TraceKind kind, const std::string& subject,
                          std::int64_t detail = 0) {
    if (trace) trace->record(now, kind, subject, detail);
  };
  const auto leaf_of = [&](fmt::NodeId id) {
    return static_cast<std::uint32_t>(m.ebe_index(id));
  };
  const auto holds = [&](fmt::NodeId node) { return tree.evaluate(node, failed); };
  const auto discount = [&](double now) {
    return rate > 0 ? std::exp(-rate * now) : 1.0;
  };
  const auto discounted_downtime = [&](double a, double b) {
    if (rate <= 0) return corrective.downtime_cost_rate * (b - a);
    return corrective.downtime_cost_rate * (std::exp(-rate * a) - std::exp(-rate * b)) /
           rate;
  };

  const auto set_clock = [&](std::uint32_t slot, double t) {
    pending.erase({clock[slot], slot});
    clock[slot] = t;
    if (t != kInf) pending.insert({t, slot});
  };
  const auto schedule_phase = [&](std::uint32_t leaf, double now) {
    const double raw = sampler_.sample(leaf, phase[leaf], rng);
    if (accel[leaf] > 0) {
      set_clock(leaf, now + raw / accel[leaf]);
    } else {
      frozen[leaf] = raw;  // frozen (cold spare): hold it until reactivated
      set_clock(leaf, kInf);
    }
  };
  const auto fail_leaf = [&](std::uint32_t leaf, double now) {
    under_repair[leaf] = false;
    failed[leaf] = true;
    set_clock(leaf, kInf);
    record(now, TraceKind::LeafFailed, m.ebes()[leaf].name);
  };
  const auto renew_leaf = [&](std::uint32_t leaf, double now) {
    under_repair[leaf] = false;
    failed[leaf] = false;
    phase[leaf] = 1;
    schedule_phase(leaf, now);
  };

  // The factor a leaf should run at: its pool's dormancy unless it is the
  // pool's active member (lowest-index working child), times the factor of
  // every active rate dependency on it.
  const auto desired_factor = [&](std::uint32_t leaf) {
    double factor = 1.0;
    for (const fmt::SpareSpec& spare : m.spares()) {
      bool member = false;
      for (fmt::NodeId c : spare.children) member = member || leaf_of(c) == leaf;
      if (!member) continue;
      for (fmt::NodeId c : spare.children) {
        if (failed[leaf_of(c)]) continue;
        factor = leaf_of(c) == leaf ? 1.0 : spare.dormancy;
        break;
      }
    }
    for (const fmt::RateDependency& dep : m.rdeps()) {
      const bool active = dep.trigger_phase == 0
                              ? holds(dep.trigger)
                              : phase[leaf_of(dep.trigger)] >= dep.trigger_phase;
      for (fmt::NodeId d : dep.dependents)
        if (active && leaf_of(d) == leaf) factor *= dep.factor;
    }
    return factor;
  };
  const auto update_rates = [&](double now) {
    for (std::uint32_t leaf = 0; leaf < num_leaves; ++leaf) {
      const double desired = desired_factor(leaf);
      if (desired == accel[leaf]) continue;
      if (!failed[leaf] && !under_repair[leaf]) {
        // Rescale the remaining sojourn (or freeze it at factor zero).
        const double natural =
            accel[leaf] > 0 ? (clock[leaf] - now) * accel[leaf] : frozen[leaf];
        if (desired > 0) {
          set_clock(leaf, now + natural / desired);
        } else {
          frozen[leaf] = natural;
          set_clock(leaf, kInf);
        }
      }
      accel[leaf] = desired;
      record(now, TraceKind::AccelerationChanged, m.ebes()[leaf].name,
             static_cast<std::int64_t>(std::llround(desired * 1000)));
    }
  };

  // The full settle after every event: FDEP fixpoint, rates, top-event edge.
  const auto settle = [&](double now, std::uint32_t cause) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const fmt::FunctionalDependency& dep : m.fdeps()) {
        if (!holds(dep.trigger)) continue;
        for (fmt::NodeId d : dep.dependents) {
          const std::uint32_t leaf = leaf_of(d);
          if (failed[leaf]) continue;
          phase[leaf] = m.ebes()[leaf].degradation.phases() + 1;
          fail_leaf(leaf, now);
          changed = true;
        }
      }
    }
    update_rates(now);
    const bool top = holds(m.top());
    if (top && !down) {
      ++result.failures;
      result.first_failure_time = std::min(result.first_failure_time, now);
      ++result.failures_per_leaf[cause];
      if (opts.record_failure_log)
        result.failure_log.push_back(FailureRecord{now, cause});
      result.cost.corrective += corrective.enabled ? corrective.cost : 0.0;
      result.discounted_cost.corrective +=
          corrective.enabled ? corrective.cost * discount(now) : 0.0;
      down = true;
      down_since = now;
      record(now, TraceKind::TopFailed, tree.name(m.top()));
      if (corrective.enabled) set_clock(corrective_slot, now + corrective.delay);
    } else if (!top && down) {
      result.downtime += now - down_since;
      result.cost.downtime += corrective.downtime_cost_rate * (now - down_since);
      result.discounted_cost.downtime += discounted_downtime(down_since, now);
      down = false;
      set_clock(corrective_slot, kInf);  // a pending renewal is moot
      record(now, TraceKind::TopRestored, tree.name(m.top()));
    }
  };

  for (std::uint32_t leaf = 0; leaf < num_leaves; ++leaf) schedule_phase(leaf, 0.0);
  for (std::uint32_t k = 0; k < m.inspections().size(); ++k)
    set_clock(insp_base + k, m.inspections()[k].first_at);
  for (std::uint32_t k = 0; k < m.replacements().size(); ++k)
    set_clock(repl_base + k, m.replacements()[k].first_at);
  update_rates(0.0);  // initial spare dormancy

  while (!pending.empty() && pending.begin()->first <= opts.horizon) {
    const auto [now, slot] = *pending.begin();
    set_clock(slot, kInf);
    ++result.events;
    std::uint32_t cause = 0;
    if (slot < insp_base) {
      const std::uint32_t leaf = slot;
      const std::string& name = m.ebes()[leaf].name;
      if (under_repair[leaf]) {
        renew_leaf(leaf, now);  // a timed repair completed
        record(now, TraceKind::RepairCompleted, name);
      } else {
        ++phase[leaf];
        record(now, TraceKind::PhaseTransition, name, phase[leaf]);
        if (phase[leaf] > m.ebes()[leaf].degradation.phases()) {
          fail_leaf(leaf, now);
          cause = leaf;
        } else {
          schedule_phase(leaf, now);
        }
      }
    } else if (slot < repl_base) {
      const std::uint32_t k = slot - insp_base;
      const fmt::InspectionModule& mod = m.inspections()[k];
      set_clock(slot, now + mod.period);
      if (!policy || lang::round_active(*policy, k, now)) {
        ++result.inspections;
        result.cost.inspection += mod.cost;
        result.discounted_cost.inspection += mod.cost * discount(now);
        record(now, TraceKind::InspectionPerformed, mod.name);
        const auto repair = [&](std::uint32_t leaf) {
          const fmt::ExtendedBasicEvent& e = m.ebes()[leaf];
          ++result.repairs;
          ++result.repairs_per_leaf[leaf];
          result.cost.repair += e.repair.cost;
          result.discounted_cost.repair += e.repair.cost * discount(now);
          record(now, TraceKind::RepairPerformed, e.name);
          if (e.repair.duration > 0) {
            under_repair[leaf] = true;  // degradation paused until completion
            set_clock(leaf, now + e.repair.duration);
          } else {
            renew_leaf(leaf, now);
          }
        };
        if (policy) {
          const auto host = lang::make_host(
              [&](std::uint32_t leaf) { return static_cast<double>(phase[leaf]); },
              [&](std::uint32_t leaf) { return static_cast<bool>(failed[leaf]); },
              [&](std::uint32_t leaf) { return static_cast<bool>(under_repair[leaf]); },
              repair);
          lang::run_round(*policy, k, now, host, policy_state);
        } else {
          for (fmt::NodeId target : mod.targets) {
            const std::uint32_t leaf = leaf_of(target);
            if (failed[leaf] || under_repair[leaf]) continue;
            if (phase[leaf] < m.ebes()[leaf].degradation.threshold_phase()) continue;
            if (mod.detection_probability < 1.0 &&
                !rng.bernoulli(mod.detection_probability))
              continue;  // imperfect inspection missed it
            repair(leaf);
          }
        }
      }
    } else if (slot < corrective_slot) {
      const fmt::ReplacementModule& mod = m.replacements()[slot - repl_base];
      set_clock(slot, now + mod.period);
      ++result.replacements;
      result.cost.replacement += mod.cost;
      result.discounted_cost.replacement += mod.cost * discount(now);
      record(now, TraceKind::ReplacementPerformed, mod.name);
      for (fmt::NodeId target : mod.targets) renew_leaf(leaf_of(target), now);
    } else {
      record(now, TraceKind::CorrectiveCompleted, tree.name(m.top()));
      for (std::uint32_t leaf = 0; leaf < num_leaves; ++leaf) renew_leaf(leaf, now);
    }
    settle(now, cause);
  }

  if (down) {
    result.downtime += opts.horizon - down_since;
    result.cost.downtime += corrective.downtime_cost_rate * (opts.horizon - down_since);
    result.discounted_cost.downtime += discounted_downtime(down_since, opts.horizon);
  }
  return result;
}

}  // namespace fmtree::sim
