// Reduced ordered binary decision diagrams for exact static fault-tree
// analysis.
//
// Variables are the tree's basic events in basic_events() order (index i is
// variable i). The manager owns all nodes; BddRef values are plain indices
// and remain valid for the manager's lifetime.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ft/tree.hpp"

namespace fmtree::ft {

/// Handle to a BDD node inside a BddManager.
struct BddRef {
  std::uint32_t index = 0;
  friend bool operator==(BddRef, BddRef) = default;
};

class BddManager {
public:
  explicit BddManager(std::uint32_t num_vars);

  BddRef zero() const noexcept { return BddRef{0}; }
  BddRef one() const noexcept { return BddRef{1}; }
  /// The single-variable function x_var.
  BddRef var(std::uint32_t v);

  BddRef bdd_and(BddRef a, BddRef b);
  BddRef bdd_or(BddRef a, BddRef b);
  /// "At least k of fs" as a BDD.
  BddRef at_least(int k, std::span<const BddRef> fs);

  /// P(f = 1) when variable i is true independently with probability p[i].
  double probability(BddRef f, std::span<const double> p) const;

  /// Count of live nodes (including the two terminals).
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Caps diagram growth: once node_count() would exceed `max_nodes`, node
  /// creation throws ResourceLimitError carrying the node count reached.
  /// The default (2^22 nodes ≈ 64 MiB) is far above any tree analysed in
  /// practice; lower it to bound exact analysis on adversarial inputs.
  void set_max_nodes(std::size_t max_nodes) noexcept { max_nodes_ = max_nodes; }
  std::size_t max_nodes() const noexcept { return max_nodes_; }

  /// Structural view of a node, for algorithms walking the diagram (the
  /// tests' minimal-solution extraction).
  struct NodeView {
    bool is_terminal = false;
    bool terminal_value = false;  ///< meaningful when is_terminal
    std::uint32_t var = 0;        ///< meaningful when !is_terminal
    BddRef low;
    BddRef high;
  };
  NodeView view(BddRef f) const;

  std::uint32_t num_vars() const noexcept { return num_vars_; }

private:
  struct Node {
    std::uint32_t var;  // kTerminalVar for terminals
    std::uint32_t low;
    std::uint32_t high;
  };

  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;

  struct TripleHash {
    std::size_t operator()(const std::array<std::uint32_t, 3>& t) const noexcept {
      std::size_t h = 1469598103934665603ULL;
      for (std::uint32_t x : t) {
        h ^= x;
        h *= 1099511628211ULL;
      }
      return h;
    }
  };

  std::uint32_t make_node(std::uint32_t v, std::uint32_t low, std::uint32_t high);
  std::uint32_t apply_and(std::uint32_t a, std::uint32_t b);
  std::uint32_t apply_or(std::uint32_t a, std::uint32_t b);
  std::uint32_t level(std::uint32_t node) const noexcept;

  std::uint32_t num_vars_;
  std::size_t max_nodes_ = std::size_t{1} << 22;
  std::vector<Node> nodes_;
  std::unordered_map<std::array<std::uint32_t, 3>, std::uint32_t, TripleHash> unique_;
  std::unordered_map<std::array<std::uint32_t, 3>, std::uint32_t, TripleHash> and_cache_;
  std::unordered_map<std::array<std::uint32_t, 3>, std::uint32_t, TripleHash> or_cache_;
};

/// Compiles the tree's structure function into a BDD. The manager must have
/// exactly tree.basic_events().size() variables.
BddRef build_bdd(BddManager& mgr, const FaultTree& tree);

/// Exact top-event probability at mission time t via BDD.
double top_event_probability(const FaultTree& tree, double mission_time);

/// Exact top-event probability for explicit basic-event probabilities.
double top_event_probability(const FaultTree& tree, std::span<const double> p);

}  // namespace fmtree::ft
