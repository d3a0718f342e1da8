// Incremental evaluation of a fault tree's boolean structure.
//
// The trajectory kernel flips one leaf at a time (a phase transition
// failing a leaf, a repair restoring it, an FDEP cascade); recomputing every
// gate on each flip costs O(nodes) per event. GateEvaluator instead keeps a
// failed-child counter per gate and propagates a flip only along paths whose
// truth value actually changed — O(depth of the changed region) per event.
//
// All gate types reduce to a counter threshold: AND fires at |children|
// failed, OR at 1, VOT(k/N) at k. Because the structure is monotone (no
// negation), a single leaf flip moves every counter in the same direction,
// so each node changes truth at most once per flip and a plain worklist
// yields the exact fixpoint, DAGs (shared subtrees) included.
//
// The evaluator itself is immutable and shareable across threads; all
// mutable evaluation state lives in a GateEvaluator::State owned by the
// caller (one per worker, reused across trajectories).
#pragma once

#include <cstdint>
#include <vector>

#include "ft/tree.hpp"

namespace fmtree::sim {

class GateEvaluator {
public:
  /// Flattens the tree into CSR adjacency arrays. The tree must outlive no
  /// one: the evaluator copies everything it needs.
  explicit GateEvaluator(const ft::FaultTree& tree);

  /// Mutable evaluation state: truth value per node plus the failed-child
  /// counter per gate. Plain vectors so a reset is two assigns.
  struct State {
    std::vector<char> node_true;               ///< per node: event holds?
    std::vector<std::int32_t> failed_children; ///< per gate node: #true children
    std::vector<std::uint32_t> worklist;       ///< propagation scratch
  };

  /// Sizes `s` for this tree and evaluates the all-leaves-healthy state.
  void reset(State& s) const;

  /// Flips leaf `leaf` (basic-event index) to `failed` and propagates the
  /// change upward. No-op if the leaf already has that value.
  void set_leaf(State& s, std::uint32_t leaf, bool failed) const;

  bool value(const State& s, ft::NodeId node) const {
    return s.node_true[node.value] != 0;
  }

  /// True iff the incremental state equals a from-scratch re-evaluation of
  /// the same leaf values (debug cross-check).
  bool consistent(const State& s) const;

  std::size_t node_count() const noexcept { return thresholds_.size(); }
  std::uint32_t leaf_node(std::uint32_t leaf) const { return leaf_nodes_[leaf]; }

private:
  /// Full bottom-up re-evaluation of every gate from the leaf values in
  /// `s.node_true`, rebuilding the counters.
  void recompute(State& s) const;

  // Per node: firing threshold on the failed-child counter; leaves get a
  // sentinel of INT32_MAX so they can never fire from a counter.
  std::vector<std::int32_t> thresholds_;
  std::vector<char> is_gate_;
  // CSR: parents of each node (edges child -> parent gate).
  std::vector<std::uint32_t> parent_begin_;
  std::vector<std::uint32_t> parent_edges_;
  // CSR: children of each gate node (empty range for leaves); recompute only.
  std::vector<std::uint32_t> child_begin_;
  std::vector<std::uint32_t> child_edges_;
  // Basic-event index -> node id.
  std::vector<std::uint32_t> leaf_nodes_;
};

}  // namespace fmtree::sim
