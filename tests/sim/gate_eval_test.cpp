// Randomized equivalence tests for the incremental gate evaluator.
//
// Two layers of defence:
//  * GateEvaluator alone, against the fault tree's own recursive structure
//    function (ft::FaultTree::evaluate): random AND/OR/VOT DAGs (shared
//    subtrees included) under long random leaf flip/repair sequences — every
//    intermediate node_true state must match;
//  * the whole kernel, whose settle is incremental, against sim::Reference,
//    which re-evaluates every gate from scratch: random FMT models with
//    FDEPs, spares, RDEPs and maintenance — every TrajectoryResult field must
//    agree bit for bit.
//
// std::mt19937 is fully specified by the standard, so these "random" tests
// are deterministic across platforms.
#include "sim/gate_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "sim_testing.hpp"

namespace fmtree::sim {
namespace {

using sim_test::pick;

/// Random monotone DAG: `num_leaves` basic events, then `num_gates` gates
/// whose children are drawn (without replacement) from all earlier nodes —
/// so gates freely share subtrees.
ft::FaultTree random_tree(std::mt19937& rng, int num_leaves, int num_gates) {
  ft::FaultTree tree;
  std::vector<ft::NodeId> nodes;
  for (int i = 0; i < num_leaves; ++i)
    nodes.push_back(
        tree.add_basic_event("L" + std::to_string(i), Distribution::deterministic(1.0)));
  for (int g = 0; g < num_gates; ++g) {
    std::vector<ft::NodeId> pool = nodes;
    std::shuffle(pool.begin(), pool.end(), rng);
    const int arity = pick(rng, 2, std::min<int>(4, static_cast<int>(pool.size())));
    std::vector<ft::NodeId> children(pool.begin(), pool.begin() + arity);
    const int which = pick(rng, 0, 2);
    const std::string name = "G" + std::to_string(g);
    ft::NodeId id;
    if (which == 0) {
      id = tree.add_and(name, std::move(children));
    } else if (which == 1) {
      id = tree.add_or(name, std::move(children));
    } else {
      id = tree.add_voting(name, pick(rng, 1, arity), std::move(children));
    }
    nodes.push_back(id);
  }
  return tree;
}

TEST(GateEval, RandomFlipSequencesMatchFullReevaluation) {
  for (unsigned seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(seed);
    const int num_leaves = pick(rng, 3, 16);
    const int num_gates = pick(rng, 1, 24);
    const ft::FaultTree tree = random_tree(rng, num_leaves, num_gates);
    const GateEvaluator eval(tree);

    GateEvaluator::State incremental;
    eval.reset(incremental);
    std::vector<bool> failed(static_cast<std::size_t>(num_leaves), false);

    for (int step = 0; step < 400; ++step) {
      // A mix of flips (fail <-> repair) and redundant writes (no-ops).
      const auto leaf = static_cast<std::uint32_t>(pick(rng, 0, num_leaves - 1));
      const bool fail = pick(rng, 0, 3) != 0 ? !failed[leaf] : failed[leaf];
      failed[leaf] = fail;
      eval.set_leaf(incremental, leaf, fail);

      for (std::uint32_t node = 0; node < tree.node_count(); ++node)
        ASSERT_EQ(eval.value(incremental, ft::NodeId{node}),
                  tree.evaluate(ft::NodeId{node}, failed))
            << "seed " << seed << " step " << step << " node " << node;
      ASSERT_TRUE(eval.consistent(incremental)) << "seed " << seed << " step " << step;
    }
  }
}

TEST(GateEval, VotingThresholdEdges) {
  // 2-of-3 voting: exhaustive check of all 8 leaf assignments, reached by
  // single flips so every intermediate state exercises the propagation.
  ft::FaultTree tree;
  std::vector<ft::NodeId> leaves;
  for (int i = 0; i < 3; ++i)
    leaves.push_back(
        tree.add_basic_event("L" + std::to_string(i), Distribution::deterministic(1.0)));
  const ft::NodeId top = tree.add_voting("vot", 2, leaves);
  const GateEvaluator eval(tree);

  GateEvaluator::State s;
  eval.reset(s);
  for (unsigned mask = 0; mask < 8; ++mask) {
    for (std::uint32_t l = 0; l < 3; ++l) eval.set_leaf(s, l, (mask >> l & 1u) != 0);
    const int count = (mask & 1) + (mask >> 1 & 1) + (mask >> 2 & 1);
    EXPECT_EQ(eval.value(s, top), count >= 2) << "mask " << mask;
    EXPECT_TRUE(eval.consistent(s));
  }
}

// ---- Kernel-level equivalence ------------------------------------------------

TEST(GateEval, ExecutorReferenceAndIncrementalEnginesAgreeBitForBit) {
  sim::SimOptions opts;
  opts.horizon = 10.0;
  opts.record_failure_log = true;
  opts.discount_rate = 0.05;
  for (unsigned seed = 0; seed < 50; ++seed) {
    std::mt19937 rng(seed);
    const fmt::FaultMaintenanceTree model = sim_test::random_fmt(rng);
    sim_test::expect_reference_agrees(model, opts, seed, 500);
  }
}

}  // namespace
}  // namespace fmtree::sim
