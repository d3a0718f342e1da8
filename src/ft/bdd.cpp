#include "ft/bdd.hpp"

#include <array>

#include "util/error.hpp"

namespace fmtree::ft {

BddManager::BddManager(std::uint32_t num_vars) : num_vars_(num_vars) {
  nodes_.push_back(Node{kTerminalVar, 0, 0});  // index 0: FALSE
  nodes_.push_back(Node{kTerminalVar, 1, 1});  // index 1: TRUE
}

std::uint32_t BddManager::level(std::uint32_t node) const noexcept {
  const std::uint32_t v = nodes_[node].var;
  return v == kTerminalVar ? num_vars_ : v;  // terminals sort below everything
}

std::uint32_t BddManager::make_node(std::uint32_t v, std::uint32_t low,
                                    std::uint32_t high) {
  if (low == high) return low;  // reduction rule
  const std::array<std::uint32_t, 3> key{v, low, high};
  auto [it, inserted] = unique_.try_emplace(key, 0);
  if (!inserted) return it->second;
  if (nodes_.size() >= max_nodes_) {
    unique_.erase(it);  // keep the unique table consistent with nodes_
    throw ResourceLimitError("BDD node count exceeds max_nodes (" +
                                 std::to_string(max_nodes_) + ")",
                             {.states = nodes_.size()});
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{v, low, high});
  it->second = idx;
  return idx;
}

BddRef BddManager::var(std::uint32_t v) {
  if (v >= num_vars_) throw DomainError("BDD variable out of range");
  return BddRef{make_node(v, 0, 1)};
}

std::uint32_t BddManager::apply_and(std::uint32_t a, std::uint32_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == 1) return b;
  if (b == 1) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);  // canonicalize for cache hits
  const std::array<std::uint32_t, 3> key{a, b, 0};
  if (auto it = and_cache_.find(key); it != and_cache_.end()) return it->second;
  const std::uint32_t la = level(a);
  const std::uint32_t lb = level(b);
  const std::uint32_t v = std::min(la, lb);
  const std::uint32_t a0 = la == v ? nodes_[a].low : a;
  const std::uint32_t a1 = la == v ? nodes_[a].high : a;
  const std::uint32_t b0 = lb == v ? nodes_[b].low : b;
  const std::uint32_t b1 = lb == v ? nodes_[b].high : b;
  const std::uint32_t r = make_node(v, apply_and(a0, b0), apply_and(a1, b1));
  and_cache_.emplace(key, r);
  return r;
}

std::uint32_t BddManager::apply_or(std::uint32_t a, std::uint32_t b) {
  if (a == 1 || b == 1) return 1;
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  const std::array<std::uint32_t, 3> key{a, b, 0};
  if (auto it = or_cache_.find(key); it != or_cache_.end()) return it->second;
  const std::uint32_t la = level(a);
  const std::uint32_t lb = level(b);
  const std::uint32_t v = std::min(la, lb);
  const std::uint32_t a0 = la == v ? nodes_[a].low : a;
  const std::uint32_t a1 = la == v ? nodes_[a].high : a;
  const std::uint32_t b0 = lb == v ? nodes_[b].low : b;
  const std::uint32_t b1 = lb == v ? nodes_[b].high : b;
  const std::uint32_t r = make_node(v, apply_or(a0, b0), apply_or(a1, b1));
  or_cache_.emplace(key, r);
  return r;
}

BddRef BddManager::bdd_and(BddRef a, BddRef b) {
  return BddRef{apply_and(a.index, b.index)};
}
BddRef BddManager::bdd_or(BddRef a, BddRef b) {
  return BddRef{apply_or(a.index, b.index)};
}

BddRef BddManager::at_least(int k, std::span<const BddRef> fs) {
  if (k <= 0) return one();
  if (static_cast<std::size_t>(k) > fs.size()) return zero();
  // DP: best[j] = BDD of ">= j of the children processed so far".
  std::vector<BddRef> best(static_cast<std::size_t>(k) + 1, zero());
  best[0] = one();
  for (BddRef f : fs) {
    for (int j = k; j >= 1; --j) {
      const auto ju = static_cast<std::size_t>(j);
      best[ju] = bdd_or(best[ju], bdd_and(best[ju - 1], f));
    }
  }
  return best[static_cast<std::size_t>(k)];
}

double BddManager::probability(BddRef f, std::span<const double> p) const {
  if (p.size() != num_vars_)
    throw DomainError("probability vector size does not match BDD variable count");
  std::unordered_map<std::uint32_t, double> memo;
  // Iterative DFS to avoid recursion-depth issues on deep BDDs.
  std::vector<std::uint32_t> stack{f.index};
  memo.emplace(0u, 0.0);
  memo.emplace(1u, 1.0);
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (memo.contains(n)) {
      stack.pop_back();
      continue;
    }
    const Node& node = nodes_[n];
    const bool lo_done = memo.contains(node.low);
    const bool hi_done = memo.contains(node.high);
    if (lo_done && hi_done) {
      const double pv = p[node.var];
      memo[n] = (1.0 - pv) * memo[node.low] + pv * memo[node.high];
      stack.pop_back();
    } else {
      if (!lo_done) stack.push_back(node.low);
      if (!hi_done) stack.push_back(node.high);
    }
  }
  return memo.at(f.index);
}

BddManager::NodeView BddManager::view(BddRef f) const {
  if (f.index >= nodes_.size()) throw DomainError("BDD reference out of range");
  const Node& n = nodes_[f.index];
  NodeView out;
  if (n.var == kTerminalVar) {
    out.is_terminal = true;
    out.terminal_value = f.index == 1;
  } else {
    out.var = n.var;
    out.low = BddRef{n.low};
    out.high = BddRef{n.high};
  }
  return out;
}

BddRef build_bdd(BddManager& mgr, const FaultTree& tree) {
  tree.validate();
  if (mgr.num_vars() != tree.basic_events().size())
    throw DomainError("BDD manager variable count does not match tree");
  std::vector<BddRef> memo(tree.node_count(), BddRef{0});
  for (std::uint32_t id = 0; id < tree.node_count(); ++id) {
    const NodeId node{id};
    if (tree.is_basic(node)) {
      memo[id] = mgr.var(static_cast<std::uint32_t>(tree.basic_index(node)));
      continue;
    }
    const Gate& g = tree.gate(node);
    std::vector<BddRef> kids;
    kids.reserve(g.children.size());
    for (NodeId c : g.children) kids.push_back(memo[c.value]);
    switch (g.type) {
      case GateType::And: {
        BddRef acc = mgr.one();
        for (BddRef k : kids) acc = mgr.bdd_and(acc, k);
        memo[id] = acc;
        break;
      }
      case GateType::Or: {
        BddRef acc = mgr.zero();
        for (BddRef k : kids) acc = mgr.bdd_or(acc, k);
        memo[id] = acc;
        break;
      }
      case GateType::Voting:
        memo[id] = mgr.at_least(g.k, kids);
        break;
    }
  }
  return memo[tree.top().value];
}

double top_event_probability(const FaultTree& tree, double mission_time) {
  const std::vector<double> p = tree.probabilities_at(mission_time);
  return top_event_probability(tree, p);
}

double top_event_probability(const FaultTree& tree, std::span<const double> p) {
  BddManager mgr(static_cast<std::uint32_t>(tree.basic_events().size()));
  const BddRef f = build_bdd(mgr, tree);
  return mgr.probability(f, p);
}

}  // namespace fmtree::ft
