#include "sim/batch_executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

BatchExecutor::BatchExecutor(const fmt::FaultMaintenanceTree& model)
    : model_(model), eval_(model.structure()), sampler_(model) {
  model.validate();
  top_node_ = model.top().value;
  num_leaves_ = static_cast<std::uint32_t>(model.num_ebes());

  const auto leaf_of = [&](fmt::NodeId id) {
    return static_cast<std::uint32_t>(model.ebe_index(id));
  };

  num_phases_.reserve(num_leaves_);
  threshold_.reserve(num_leaves_);
  for (const fmt::ExtendedBasicEvent& ebe : model.ebes()) {
    num_phases_.push_back(ebe.degradation.phases());
    threshold_.push_back(ebe.degradation.threshold_phase());
    repair_cost_.push_back(ebe.repair.cost);
    repair_duration_.push_back(ebe.repair.duration);
  }

  // ---- Maintenance modules with CSR target lists ---------------------------
  for (const fmt::InspectionModule& mod : model.inspections()) {
    InspectionInfo info;
    info.period = mod.period;
    info.first_at = mod.first_at;
    info.cost = mod.cost;
    info.detection_probability = mod.detection_probability;
    info.targets_begin = static_cast<std::uint32_t>(insp_targets_.size());
    for (fmt::NodeId t : mod.targets) insp_targets_.push_back(leaf_of(t));
    info.targets_end = static_cast<std::uint32_t>(insp_targets_.size());
    inspections_.push_back(info);
  }
  for (const fmt::ReplacementModule& mod : model.replacements()) {
    ReplacementInfo info;
    info.period = mod.period;
    info.first_at = mod.first_at;
    info.cost = mod.cost;
    info.targets_begin = static_cast<std::uint32_t>(repl_targets_.size());
    for (fmt::NodeId t : mod.targets) repl_targets_.push_back(leaf_of(t));
    info.targets_end = static_cast<std::uint32_t>(repl_targets_.size());
    replacements_.push_back(info);
  }

  // ---- Rate dependencies (CSR by dependent leaf) ---------------------------
  std::vector<std::vector<std::uint32_t>> rdeps_by_leaf(num_leaves_);
  for (std::size_t r = 0; r < model.rdeps().size(); ++r) {
    const fmt::RateDependency& dep = model.rdeps()[r];
    for (fmt::NodeId d : dep.dependents)
      rdeps_by_leaf[leaf_of(d)].push_back(static_cast<std::uint32_t>(r));
    RdepInfo info;
    info.trigger_node = dep.trigger.value;
    info.trigger_phase = dep.trigger_phase;
    info.factor = dep.factor;
    if (dep.trigger_phase >= 1) info.trigger_leaf = leaf_of(dep.trigger);
    rdep_info_.push_back(info);
  }
  rdep_begin_.reserve(num_leaves_ + 1);
  rdep_begin_.push_back(0);
  for (std::uint32_t leaf = 0; leaf < num_leaves_; ++leaf) {
    for (std::uint32_t r : rdeps_by_leaf[leaf]) rdep_edges_.push_back(r);
    rdep_begin_.push_back(static_cast<std::uint32_t>(rdep_edges_.size()));
  }

  // ---- Spare pools ---------------------------------------------------------
  spare_of_leaf_.assign(num_leaves_, -1);
  spare_begin_.push_back(0);
  for (std::size_t sp = 0; sp < model.spares().size(); ++sp) {
    for (fmt::NodeId child : model.spares()[sp].children) {
      spare_of_leaf_[leaf_of(child)] = static_cast<std::int32_t>(sp);
      spare_children_.push_back(leaf_of(child));
    }
    spare_begin_.push_back(static_cast<std::uint32_t>(spare_children_.size()));
    spare_dormancy_.push_back(model.spares()[sp].dormancy);
  }

  for (std::uint32_t leaf = 0; leaf < num_leaves_; ++leaf) {
    if (rdep_begin_[leaf + 1] != rdep_begin_[leaf] || spare_of_leaf_[leaf] >= 0)
      rate_leaves_.push_back(leaf);
  }

  // ---- Functional dependencies ---------------------------------------------
  fdep_begin_.push_back(0);
  for (const fmt::FunctionalDependency& dep : model.fdeps()) {
    fdep_trigger_node_.push_back(dep.trigger.value);
    for (fmt::NodeId d : dep.dependents) fdep_dependents_.push_back(leaf_of(d));
    fdep_begin_.push_back(static_cast<std::uint32_t>(fdep_dependents_.size()));
  }

  const fmt::CorrectivePolicy& corrective = model.corrective();
  corrective_enabled_ = corrective.enabled;
  corrective_delay_ = corrective.delay;
  corrective_cost_ = corrective.cost;
  downtime_cost_rate_ = corrective.downtime_cost_rate;
}

void BatchExecutor::run(std::uint64_t seed, std::uint64_t index, const SimOptions& opts,
                        BatchWorkspace& ws, TrajectoryResult& result) const {
  const double horizon = opts.horizon;
  const double discount_rate = opts.discount_rate;
  if (!(horizon > 0 && std::isfinite(horizon)))
    throw DomainError("simulation horizon must be positive and finite");
  if (discount_rate < 0) throw DomainError("discount rate must be >= 0");
  // A period of at most half an ulp of the horizon can leave t + period == t
  // at some t <= horizon, where its rounds would refire forever; above it
  // every round advances the clock.
  const double stall = (std::nextafter(horizon, kInf) - horizon) / 2;
  const auto check_period = [&](const char* kind, const auto& mod) {
    if (mod.first_at <= horizon && mod.period <= stall)
      throw DomainError(std::string(kind) + " '" + mod.name +
                        "' has a period too small to advance the clock before the "
                        "horizon");
  };
  for (const fmt::InspectionModule& mod : model_.inspections())
    check_period("inspection", mod);
  for (const fmt::ReplacementModule& mod : model_.replacements())
    check_period("replacement", mod);
  const std::uint32_t num_leaves = num_leaves_;
  const auto num_insp = static_cast<std::uint32_t>(inspections_.size());
  const auto num_repl = static_cast<std::uint32_t>(replacements_.size());

  // ---- Reset the state (no reallocation when sizes are unchanged) ----------
  ws.phase.assign(num_leaves, 1);
  ws.accel.assign(num_leaves, 1.0);
  ws.frozen_remaining.assign(num_leaves, 0.0);
  ws.leaf_failed.assign(num_leaves, 0);
  ws.under_repair.assign(num_leaves, 0);
  ws.clock.assign(num_leaves + num_insp + num_repl + 1, kInf);
  eval_.reset(ws.gates);
  if (opts.bound_policy) ws.policy.reset(*opts.bound_policy);
  result.horizon = horizon;
  result.first_failure_time = kInf;
  result.failures = 0;
  result.downtime = 0.0;
  result.cost = {};
  result.discounted_cost = {};
  result.inspections = 0;
  result.repairs = 0;
  result.replacements = 0;
  result.events = 0;
  result.repairs_per_leaf.assign(num_leaves, 0);
  result.failures_per_leaf.assign(num_leaves, 0);
  result.failure_log.clear();

  // Plain pointers, so the event loop indexes flat memory with no bounds
  // rechecking. The three maintenance pointers are offsets into the clock
  // row, whose base is leaf_time — see BatchWorkspace::clock.
  std::int32_t* const phase = ws.phase.data();
  double* const accel = ws.accel.data();
  double* const frozen = ws.frozen_remaining.data();
  std::uint8_t* const failed = ws.leaf_failed.data();
  std::uint8_t* const under_repair = ws.under_repair.data();
  double* const leaf_time = ws.clock.data();
  double* const inspect_time = leaf_time + num_leaves;
  double* const replace_time = inspect_time + num_insp;
  double* const corrective_time = replace_time + num_repl;
  GateEvaluator::State& gates = ws.gates;
  CounterStream rng(seed, index);
  bool system_down = false;
  double down_since = 0.0;

  for (std::uint32_t m = 0; m < num_insp; ++m) inspect_time[m] = inspections_[m].first_at;
  for (std::uint32_t m = 0; m < num_repl; ++m)
    replace_time[m] = replacements_[m].first_at;
  // The corrective slot stays +infinity: no renewal pending. Every leaf
  // starts in phase 1 at acceleration 1, so its first sojourn is drawn here
  // leaf by leaf, exactly as schedule_phase would draw it.
  for (std::uint32_t leaf = 0; leaf < num_leaves; ++leaf)
    leaf_time[leaf] = sampler_.sample(leaf, 1, rng);

  const auto discount = [&](double now) {
    return discount_rate > 0 ? std::exp(-discount_rate * now) : 1.0;
  };
  const auto discounted_downtime = [&](double a, double b) {
    if (discount_rate <= 0) return downtime_cost_rate_ * (b - a);
    return downtime_cost_rate_ *
           (std::exp(-discount_rate * a) - std::exp(-discount_rate * b)) /
           discount_rate;
  };

  const auto schedule_phase = [&](std::uint32_t leaf, double now) {
    const double raw = sampler_.sample(leaf, phase[leaf], rng);
    if (accel[leaf] > 0) {
      leaf_time[leaf] = now + raw / accel[leaf];
    } else {
      // Frozen (cold spare): hold the sampled sojourn until reactivated.
      frozen[leaf] = raw;
      leaf_time[leaf] = kInf;
    }
  };

  const auto fail_leaf = [&](std::uint32_t leaf) {
    under_repair[leaf] = 0;
    leaf_time[leaf] = kInf;
    failed[leaf] = 1;
    eval_.set_leaf(gates, leaf, true);
  };

  // The leaf currently active in a spare pool: its lowest-index non-failed
  // child (all-failed pools have no active member; the value is unused then).
  const auto spare_factor = [&](std::uint32_t leaf) {
    const std::int32_t sp = spare_of_leaf_[leaf];
    if (sp < 0) return 1.0;
    const auto spi = static_cast<std::size_t>(sp);
    for (std::uint32_t k = spare_begin_[spi]; k < spare_begin_[spi + 1]; ++k) {
      const std::uint32_t c = spare_children_[k];
      if (!failed[c]) return c == leaf ? 1.0 : spare_dormancy_[spi];
    }
    return 1.0;
  };

  const auto update_rates = [&](double now) {
    for (std::uint32_t leaf : rate_leaves_) {
      double desired = spare_factor(leaf);
      for (std::uint32_t k = rdep_begin_[leaf]; k < rdep_begin_[leaf + 1]; ++k) {
        const RdepInfo& dep = rdep_info_[rdep_edges_[k]];
        const bool active = dep.trigger_phase == 0
                                ? gates.node_true[dep.trigger_node] != 0
                                : phase[dep.trigger_leaf] >= dep.trigger_phase;
        if (active) desired *= dep.factor;
      }
      if (desired == accel[leaf]) continue;
      if (!failed[leaf] && !under_repair[leaf]) {
        // Rescale the remaining sojourn; a factor of zero freezes it at its
        // natural-rate remainder so reactivation resumes where it stopped.
        const double natural =
            accel[leaf] > 0 ? (leaf_time[leaf] - now) * accel[leaf] : frozen[leaf];
        if (desired > 0) {
          leaf_time[leaf] = now + natural / desired;
        } else {
          frozen[leaf] = natural;
          leaf_time[leaf] = kInf;
        }
      }
      accel[leaf] = desired;
    }
  };

  const auto renew_leaf = [&](std::uint32_t leaf, double now) {
    // Renewal preempts an ongoing repair and any pending transition; both
    // cancellations are plain stores here (schedule_phase overwrites the
    // clock, or parks it at +infinity while frozen).
    under_repair[leaf] = 0;
    phase[leaf] = 1;
    if (failed[leaf]) {
      failed[leaf] = 0;
      eval_.set_leaf(gates, leaf, false);
    }
    schedule_phase(leaf, now);
  };

  const auto end_downtime = [&](double now) {
    result.downtime += now - down_since;
    result.cost.downtime += downtime_cost_rate_ * (now - down_since);
    result.discounted_cost.downtime += discounted_downtime(down_since, now);
    system_down = false;
    *corrective_time = kInf;  // cancel a pending corrective renewal
  };

  // FDEP cascade: failed triggers force their dependents to fail, possibly
  // enabling further triggers — iterate to the (monotone) fixpoint.
  const auto apply_fdeps = [&]() {
    if (fdep_trigger_node_.empty()) return;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t f = 0; f < fdep_trigger_node_.size(); ++f) {
        if (!gates.node_true[fdep_trigger_node_[f]]) continue;
        for (std::uint32_t k = fdep_begin_[f]; k < fdep_begin_[f + 1]; ++k) {
          const std::uint32_t leaf = fdep_dependents_[k];
          if (failed[leaf]) continue;
          phase[leaf] = num_phases_[leaf] + 1;
          fail_leaf(leaf);
          changed = true;
        }
      }
    }
  };

  // Processes a potential top-event edge after leaf-state changes;
  // `cause` identifies the leaf responsible for a rising edge.
  const auto settle = [&](double now, std::uint32_t cause) {
    apply_fdeps();
    update_rates(now);
    const bool top_now = gates.node_true[top_node_] != 0;
    if (top_now && !system_down) {
      ++result.failures;
      result.first_failure_time = std::min(result.first_failure_time, now);
      ++result.failures_per_leaf[cause];
      if (opts.record_failure_log)
        result.failure_log.push_back(FailureRecord{now, cause});
      result.cost.corrective += corrective_enabled_ ? corrective_cost_ : 0.0;
      result.discounted_cost.corrective +=
          corrective_enabled_ ? corrective_cost_ * discount(now) : 0.0;
      system_down = true;
      down_since = now;
      if (corrective_enabled_) *corrective_time = now + corrective_delay_;
    } else if (!top_now && system_down) {
      end_downtime(now);
    }
  };

  // Apply initial spare dormancy (and any rate dependency active at t = 0):
  // the first sojourns were drawn at acceleration 1, and this rescales the
  // affected ones before the first event.
  update_rates(0.0);

  // ---- Main loop: branch-free min-scan over the candidate clocks -----------
  // Candidate index space (= the clock row): [0, L) leaf events (phase
  // transition, or repair completion while under_repair), [L, L+Mi)
  // inspections, [L+Mi, L+Mi+Mr) replacements, L+Mi+Mr the pending
  // corrective renewal. Ties break toward the lowest index.
  const std::uint32_t insp_base = num_leaves;
  const std::uint32_t repl_base = insp_base + num_insp;
  const std::uint32_t corrective_idx = repl_base + num_repl;
  const double* clock = leaf_time;

  while (true) {
    double best = clock[0];
    std::uint32_t best_idx = 0;
    for (std::uint32_t i = 1; i <= corrective_idx; ++i) {
      const double t = clock[i];
      const bool lt = t < best;
      best = lt ? t : best;
      best_idx = lt ? i : best_idx;
    }
    if (!(best <= horizon)) break;
    const double now = best;
    ++result.events;

    // Only failure-state changes can flip gates, and only gate flips can
    // fire FDEP triggers or the top event. Events that provably leave every
    // failure flag unchanged (phase advances, repair completions,
    // inspections — which never touch failed leaves) therefore settle with
    // update_rates alone; the full settle() runs only where a leaf fails or
    // a renewal may resurrect one.
    if (best_idx < num_leaves) {
      const std::uint32_t leaf = best_idx;
      if (under_repair[leaf]) {
        // Repair completed: the component returns as new.
        under_repair[leaf] = 0;
        phase[leaf] = 1;
        schedule_phase(leaf, now);
        update_rates(now);  // phase reset may deactivate RDEPs
      } else {
        ++phase[leaf];
        if (phase[leaf] > num_phases_[leaf]) {
          fail_leaf(leaf);
          settle(now, leaf);
        } else {
          schedule_phase(leaf, now);
          // Cannot flip a gate, but can activate a phase-triggered RDEP.
          update_rates(now);
        }
      }
    } else if (best_idx < repl_base) {
      const std::uint32_t m = best_idx - insp_base;
      const InspectionInfo& mod = inspections_[m];
      const lang::BoundPolicy* policy = opts.bound_policy;
      if (policy && !lang::round_active(*policy, m, now)) {
        // Out-of-window seasonal visit: no cost, no round, just reschedule.
        inspect_time[m] = now + mod.period;
        continue;
      }
      ++result.inspections;
      result.cost.inspection += mod.cost;
      result.discounted_cost.inspection += mod.cost * discount(now);
      // The engine's repair bookkeeping, shared between the built-in
      // threshold sweep and the scripted-policy host so both paths accrue
      // costs and set clocks identically per call.
      const auto do_repair = [&](std::uint32_t leaf) {
        ++result.repairs;
        ++result.repairs_per_leaf[leaf];
        result.cost.repair += repair_cost_[leaf];
        result.discounted_cost.repair += repair_cost_[leaf] * discount(now);
        if (repair_duration_[leaf] > 0) {
          // Timed repair: pause degradation until the crew finishes.
          under_repair[leaf] = 1;
          leaf_time[leaf] = now + repair_duration_[leaf];
        } else {
          renew_leaf(leaf, now);
        }
      };
      // An idle round changes no state and draws no number; see below.
      bool idle = true;
      if (policy) {
        const auto host = lang::make_host(
            [&](std::uint32_t leaf) { return static_cast<double>(phase[leaf]); },
            [&](std::uint32_t leaf) { return failed[leaf] != 0; },
            [&](std::uint32_t leaf) { return under_repair[leaf] != 0; }, do_repair);
        idle = !lang::run_round(*policy, m, now, host, ws.policy) &&
               policy->time_invariant[m] != 0;
      } else {
        for (std::uint32_t k = mod.targets_begin; k < mod.targets_end; ++k) {
          const std::uint32_t leaf = insp_targets_[k];
          if (failed[leaf]) continue;        // inspections cannot fix failures
          if (under_repair[leaf]) continue;  // a crew is already on it
          if (phase[leaf] < threshold_[leaf]) continue;
          idle = false;  // eligible: a repair, or a detection draw, follows
          // Imperfect inspections miss degradation with prob. 1 - p.
          if (mod.detection_probability < 1.0 &&
              !rng.bernoulli(mod.detection_probability)) {
            continue;
          }
          do_repair(leaf);
        }
      }
      if (!idle) {
        // Repairs reset phases, which can deactivate phase-triggered rate
        // dependencies (failure states are untouched, so no gate can flip).
        update_rates(now);
        inspect_time[m] = now + mod.period;
        continue;
      }
      // Fast-forward: nothing changed since the last update_rates, and only
      // another clock can change anything, so every round of this module
      // before the next other event is idle too. Book them here, as the
      // min-scan would: a tie goes to the lower clock index, and the round
      // times are the same repeated additions.
      double before = kInf, after = kInf;  // earliest clock below / above ours
      for (std::uint32_t i = 0; i < best_idx; ++i) before = std::min(before, clock[i]);
      for (std::uint32_t i = best_idx + 1; i <= corrective_idx; ++i)
        after = std::min(after, clock[i]);
      const double last = std::min(after, horizon);
      double t = now + mod.period;
      while (t < before && t <= last) {
        ++result.events;
        ++result.inspections;
        result.cost.inspection += mod.cost;
        result.discounted_cost.inspection += mod.cost * discount(t);
        t += mod.period;
      }
      inspect_time[m] = t;
    } else if (best_idx < corrective_idx) {
      const std::uint32_t m = best_idx - repl_base;
      const ReplacementInfo& mod = replacements_[m];
      ++result.replacements;
      result.cost.replacement += mod.cost;
      result.discounted_cost.replacement += mod.cost * discount(now);
      for (std::uint32_t k = mod.targets_begin; k < mod.targets_end; ++k)
        renew_leaf(repl_targets_[k], now);
      settle(now, 0);  // may restore a failed system
      replace_time[m] = now + mod.period;
    } else {
      // Corrective renewal: the whole system returns as new.
      *corrective_time = kInf;
      for (std::uint32_t leaf = 0; leaf < num_leaves; ++leaf) renew_leaf(leaf, now);
      settle(now, 0);
    }
  }

  if (system_down) {
    result.downtime += horizon - down_since;
    result.cost.downtime += downtime_cost_rate_ * (horizon - down_since);
    result.discounted_cost.downtime += discounted_downtime(down_since, horizon);
  }
}

}  // namespace fmtree::sim
