#include "analytic/fmt2ctmc.hpp"

#include <deque>
#include <unordered_map>
#include <variant>

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::analytic {

namespace {

/// Mixed-radix packing of a phase vector into a 64-bit key.
class PhaseCodec {
public:
  explicit PhaseCodec(const fmt::FaultMaintenanceTree& model) {
    radix_.reserve(model.num_ebes());
    std::uint64_t capacity = 1;
    for (const fmt::ExtendedBasicEvent& e : model.ebes()) {
      const auto digits = static_cast<std::uint64_t>(e.degradation.phases()) + 1;
      radix_.push_back(digits);
      if (capacity > (~0ULL) / digits)
        throw UnsupportedModelError("phase space exceeds 64-bit encoding");
      capacity *= digits;
    }
  }

  std::uint64_t encode(const std::vector<int>& phases) const {
    std::uint64_t key = 0;
    for (std::size_t i = radix_.size(); i-- > 0;)
      key = key * radix_[i] + static_cast<std::uint64_t>(phases[i] - 1);
    return key;
  }

  std::vector<int> decode(std::uint64_t key) const {
    std::vector<int> phases(radix_.size());
    for (std::size_t i = 0; i < radix_.size(); ++i) {
      phases[i] = static_cast<int>(key % radix_[i]) + 1;
      key /= radix_[i];
    }
    return phases;
  }

private:
  std::vector<std::uint64_t> radix_;
};

void require_markovian_structure(const fmt::FaultMaintenanceTree& model) {
  if (!model.inspections().empty() || !model.replacements().empty())
    throw UnsupportedModelError(
        "periodic maintenance clocks are deterministic; the model is not a CTMC "
        "(use the simulator)");
  for (const fmt::ExtendedBasicEvent& e : model.ebes()) {
    if (!e.degradation.all_phases_exponential())
      throw UnsupportedModelError("leaf '" + e.name +
                                  "' has non-exponential phases; not a CTMC");
  }
}

double phase_rate(const fmt::DegradationModel& deg, int phase) {
  return std::get<Exponential>(deg.sojourn(phase).as_variant()).rate;
}

}  // namespace

MarkovFmt fmt_to_ctmc(const fmt::FaultMaintenanceTree& model, FailureTreatment treatment,
                      std::size_t max_states, const smc::RunControl* control) {
  // Fault site for the allocation-heavy CTMC construction: error mode stands
  // in for a bad_alloc/state-explosion mid-build.
  (void)fault::fault_point("solver.build");
  model.validate();
  require_markovian_structure(model);
  const ft::FaultTree& structure = model.structure();
  const std::size_t num_leaves = model.num_ebes();
  const PhaseCodec codec(model);

  const auto leaf_failed_vector = [&](const std::vector<int>& phases) {
    std::vector<bool> failed(num_leaves);
    for (std::size_t i = 0; i < num_leaves; ++i)
      failed[i] = phases[i] > model.ebes()[i].degradation.phases();
    return failed;
  };

  const auto is_top_failed = [&](const std::vector<int>& phases) {
    return structure.evaluate_top(leaf_failed_vector(phases));
  };

  const auto accel_for = [&](const std::vector<int>& phases, std::size_t leaf) {
    double factor = 1.0;
    if (model.rdeps().empty() && model.spares().empty()) return factor;
    const std::vector<bool> failed = leaf_failed_vector(phases);
    // Spare dormancy: a non-active pool member degrades at `dormancy` rate.
    for (const fmt::SpareSpec& spec : model.spares()) {
      bool covers = false;
      for (fmt::NodeId c : spec.children)
        if (model.ebe_index(c) == leaf) covers = true;
      if (!covers) continue;
      for (fmt::NodeId c : spec.children) {
        const std::size_t child = model.ebe_index(c);
        if (failed[child]) continue;
        if (child != leaf) factor *= spec.dormancy;
        break;  // lowest-index live child is the active one
      }
    }
    for (const fmt::RateDependency& r : model.rdeps()) {
      bool covers = false;
      for (fmt::NodeId d : r.dependents)
        if (model.ebe_index(d) == leaf) covers = true;
      if (!covers) continue;
      const bool active = r.trigger_phase == 0
                              ? structure.evaluate(r.trigger, failed)
                              : phases[model.ebe_index(r.trigger)] >= r.trigger_phase;
      if (active) factor *= r.factor;
    }
    return factor;
  };

  // FDEP closure: failed triggers force dependents to the failed phase;
  // iterate to the fixpoint so every stored state is closed.
  const auto apply_fdep_closure = [&](std::vector<int>& phases) {
    if (model.fdeps().empty()) return;
    bool changed = true;
    while (changed) {
      changed = false;
      const std::vector<bool> failed = leaf_failed_vector(phases);
      for (const fmt::FunctionalDependency& dep : model.fdeps()) {
        if (!structure.evaluate(dep.trigger, failed)) continue;
        for (fmt::NodeId d : dep.dependents) {
          const std::size_t leaf = model.ebe_index(d);
          const int failed_phase = model.ebes()[leaf].degradation.phases() + 1;
          if (phases[leaf] != failed_phase) {
            phases[leaf] = failed_phase;
            changed = true;
          }
        }
      }
    }
  };

  // ---- BFS over reachable phase vectors -------------------------------------
  struct Edge {
    State from;
    std::uint64_t to_key;
    double rate;
    bool is_failure_edge;
  };
  std::unordered_map<std::uint64_t, State> index;
  std::deque<std::uint64_t> frontier;
  std::vector<std::uint64_t> keys;
  std::vector<Edge> edges;

  std::vector<int> initial_phases(num_leaves, 1);
  apply_fdep_closure(initial_phases);
  if (is_top_failed(initial_phases))
    throw UnsupportedModelError("top event already holds in the all-new state");
  const std::uint64_t initial_key = codec.encode(initial_phases);
  index.emplace(initial_key, 0);
  keys.push_back(initial_key);
  frontier.push_back(initial_key);

  const auto intern = [&](std::uint64_t key) -> State {
    auto [it, inserted] = index.try_emplace(key, static_cast<State>(keys.size()));
    if (inserted) {
      if (keys.size() >= max_states)
        throw ResourceLimitError("reachable state space exceeds max_states (" +
                                     std::to_string(max_states) + ")",
                                 {.states = keys.size()});
      keys.push_back(key);
      frontier.push_back(key);
    }
    return it->second;
  };

  std::vector<bool> state_failed{false};
  while (!frontier.empty()) {
    const std::uint64_t key = frontier.front();
    frontier.pop_front();
    const State s = index.at(key);
    if (s % 1024 == 0) throw_if_stopped(control, "state search", {.states = keys.size()});
    const std::vector<int> phases = codec.decode(key);
    const bool failed_here = is_top_failed(phases);
    if (state_failed.size() <= s) state_failed.resize(s + 1, false);
    state_failed[s] = failed_here;
    if (failed_here && treatment == FailureTreatment::Absorbing)
      continue;  // absorbing: no outgoing edges explored
    for (std::size_t leaf = 0; leaf < num_leaves; ++leaf) {
      const fmt::DegradationModel& deg = model.ebes()[leaf].degradation;
      if (phases[leaf] > deg.phases()) continue;  // leaf already failed
      const double rate = phase_rate(deg, phases[leaf]) * accel_for(phases, leaf);
      if (rate == 0) continue;  // frozen (cold spare): no transition
      std::vector<int> next = phases;
      ++next[leaf];
      apply_fdep_closure(next);
      const bool causes_failure = !failed_here && is_top_failed(next);
      if (treatment == FailureTreatment::Renewal && causes_failure) {
        edges.push_back(Edge{s, initial_key, rate, true});
      } else {
        edges.push_back(Edge{s, codec.encode(next), rate, causes_failure});
      }
    }
    // Intern targets now that this state's edges are final.
    for (std::size_t e = edges.size(); e-- > 0 && edges[e].from == s;)
      (void)intern(edges[e].to_key);
  }

  MarkovFmt out{Ctmc(keys.size()), {}, {}, {}, keys.size()};
  out.initial.assign(keys.size(), 0.0);
  out.initial[0] = 1.0;
  out.failed.assign(keys.size(), false);
  out.failure_intensity.assign(keys.size(), 0.0);
  for (std::size_t s = 0; s < keys.size() && s < state_failed.size(); ++s)
    out.failed[s] = state_failed[s];
  for (const Edge& e : edges) {
    const State to = index.at(e.to_key);
    if (e.from != to)  // renewal self-loop (1-leaf system) contributes only reward
      out.chain.add_transition(e.from, to, e.rate);
    if (e.is_failure_edge) out.failure_intensity[e.from] += e.rate;
  }
  return out;
}

double exact_unreliability(const fmt::FaultMaintenanceTree& model, double t,
                           std::size_t max_states, const smc::RunControl* control) {
  const MarkovFmt m =
      fmt_to_ctmc(model, FailureTreatment::Absorbing, max_states, control);
  return m.chain.transient_probability(m.initial, m.failed, t, 1e-12, control);
}

double exact_expected_failures(const fmt::FaultMaintenanceTree& model, double t,
                               std::size_t max_states, const smc::RunControl* control) {
  const fmt::CorrectivePolicy& c = model.corrective();
  if (!c.enabled || c.delay != 0.0)
    throw UnsupportedModelError(
        "exact_expected_failures models corrective renewal with zero delay; "
        "enable corrective maintenance with delay=0");
  const MarkovFmt m = fmt_to_ctmc(model, FailureTreatment::Renewal, max_states, control);
  return m.chain.accumulated_reward(m.initial, m.failure_intensity, t, 1e-12, control);
}

}  // namespace fmtree::analytic
