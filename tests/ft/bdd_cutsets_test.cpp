// The BDD-based minimal-cut-set extraction, cross-checked against MOCUS.
#include <gtest/gtest.h>

#include "../util/rng_testing.hpp"
#include "cutset_oracles.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "ft/cutsets.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree::ft {
namespace {

TEST(BddCutSets, SimpleGates) {
  const FaultTree t = fmt::parse_fmt(R"(
    toplevel T;
    T or G1 c;
    G1 and a b;
    a be exp(1); b be exp(1); c be exp(1);
  )").structure();
  const auto cuts = minimal_cut_sets_bdd(t);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0], (CutSet{2}));     // {c}
  EXPECT_EQ(cuts[1], (CutSet{0, 1}));  // {a, b}
}

TEST(BddCutSets, MatchesMocusOnVoting) {
  const FaultTree t = fmt::parse_fmt(R"(
    toplevel T;
    T vot 3 a b c d e;
    a be exp(1); b be exp(1); c be exp(1); d be exp(1); e be exp(1);
  )").structure();
  EXPECT_EQ(minimal_cut_sets_bdd(t), minimal_cut_sets(t));
  EXPECT_EQ(minimal_cut_sets_bdd(t).size(), 10u);  // C(5,3)
}

TEST(BddCutSets, SubsumptionAcrossSharing) {
  // T = a or (a and b): only {a}.
  FaultTree t;
  const NodeId a = t.add_basic_event("a", Distribution::exponential(1));
  const NodeId b = t.add_basic_event("b", Distribution::exponential(1));
  const NodeId g = t.add_and("g", {a, b});
  t.set_top(t.add_or("T", {a, g}));
  const auto cuts = minimal_cut_sets_bdd(t);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], (CutSet{0}));
}

TEST(BddCutSets, MatchesMocusOnEiJoint) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::corrective_only());
  EXPECT_EQ(minimal_cut_sets_bdd(model.structure()),
            minimal_cut_sets(model.structure()));
}

TEST(BddCutSets, MatchesMocusOnRandomTrees) {
  CounterStream rng(99, 0);
  for (int rep = 0; rep < 40; ++rep) {
    FaultTree t;
    std::vector<NodeId> nodes;
    const int leaves = 3 + static_cast<int>(below(rng, 5));
    for (int i = 0; i < leaves; ++i)
      nodes.push_back(
          t.add_basic_event("l" + std::to_string(i), Distribution::exponential(1)));
    // Random DAG with occasional sharing: pick children with replacement
    // from the pool, sometimes reusing nodes already consumed.
    int gate_id = 0;
    while (nodes.size() > 1) {
      const std::size_t take =
          2 + below(rng, std::min<std::uint64_t>(3, nodes.size() - 1));
      std::vector<NodeId> kids;
      for (std::size_t i = 0; i < take; ++i) {
        const std::size_t pick = below(rng, nodes.size());
        kids.push_back(nodes[pick]);
        if (i + 1 == take || rng.bernoulli(0.8)) {
          nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(pick));
          if (nodes.empty()) break;
        }
      }
      // Dedupe (gates reject duplicates only via cut semantics, not API).
      std::sort(kids.begin(), kids.end(),
                [](NodeId a, NodeId b) { return a.value < b.value; });
      kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
      if (kids.size() < 2) {
        nodes.push_back(kids.front());
        continue;
      }
      const std::string name = "g" + std::to_string(gate_id++);
      const double dice = rng.uniform01();
      NodeId gate;
      if (dice < 0.4) gate = t.add_or(name, kids);
      else if (dice < 0.8) gate = t.add_and(name, kids);
      else gate = t.add_voting(name, 2, kids);
      nodes.push_back(gate);
    }
    t.set_top(nodes.front());
    if (t.is_basic(t.top())) continue;
    try {
      t.validate();
    } catch (const ModelError&) {
      continue;  // generated orphans; skip this instance
    }
    EXPECT_EQ(minimal_cut_sets_bdd(t), minimal_cut_sets(t)) << "rep=" << rep;
  }
}

TEST(BddCutSets, LargeVotingWhereMocusWouldBeSlow) {
  // 3-of-12 voting has C(12,3) = 220 cut sets; both must agree.
  FaultTree t;
  std::vector<NodeId> leaves;
  for (int i = 0; i < 12; ++i)
    leaves.push_back(
        t.add_basic_event("l" + std::to_string(i), Distribution::exponential(1)));
  t.set_top(t.add_voting("T", 3, leaves));
  const auto bdd_cuts = minimal_cut_sets_bdd(t);
  EXPECT_EQ(bdd_cuts.size(), 220u);
  EXPECT_EQ(bdd_cuts, minimal_cut_sets(t));
}

}  // namespace
}  // namespace fmtree::ft
