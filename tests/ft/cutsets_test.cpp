#include "ft/cutsets.hpp"

#include <gtest/gtest.h>

#include "cutset_oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree::ft {
namespace {

Distribution exp1() { return Distribution::exponential(1.0); }

FaultTree simple_or() {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  t.set_top(t.add_or("T", {a, b}));
  return t;
}

TEST(CutSets, OrGateGivesSingletons) {
  const auto cuts = minimal_cut_sets(simple_or());
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0], (CutSet{0}));
  EXPECT_EQ(cuts[1], (CutSet{1}));
}

TEST(CutSets, AndGateGivesOneSet) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  t.set_top(t.add_and("T", {a, b, c}));
  const auto cuts = minimal_cut_sets(t);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], (CutSet{0, 1, 2}));
}

TEST(CutSets, Voting2of3GivesPairs) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  t.set_top(t.add_voting("T", 2, {a, b, c}));
  const auto cuts = minimal_cut_sets(t);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_EQ(cuts[0], (CutSet{0, 1}));
  EXPECT_EQ(cuts[1], (CutSet{0, 2}));
  EXPECT_EQ(cuts[2], (CutSet{1, 2}));
}

TEST(CutSets, SubsumptionRemovesNonMinimal) {
  // T = A or (A and B): cut {A,B} subsumed by {A}.
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId g = t.add_and("G", {a, b});
  t.set_top(t.add_or("T", {a, g}));
  const auto cuts = minimal_cut_sets(t);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], (CutSet{0}));
}

TEST(CutSets, SharedEventDeduplicatedWithinCut) {
  // T = (A and B) and A -> single cut {A, B}.
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId g = t.add_and("G", {a, b});
  t.set_top(t.add_and("T", {g, a}));
  const auto cuts = minimal_cut_sets(t);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], (CutSet{0, 1}));
}

TEST(CutSets, EveryResultIsMinimalCutSet) {
  // Mixed tree, checked against the structure function.
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  const NodeId d = t.add_basic_event("D", exp1());
  const NodeId e = t.add_basic_event("E", exp1());
  const NodeId v = t.add_voting("V", 2, {a, b, c});
  const NodeId g = t.add_and("G", {d, e});
  t.set_top(t.add_or("T", {v, g}));
  const auto cuts = minimal_cut_sets(t);
  EXPECT_EQ(cuts.size(), 4u);  // 3 pairs + {D,E}
  for (const CutSet& cut : cuts) EXPECT_TRUE(is_minimal_cut_set(t, cut));
}

TEST(CutSets, ExhaustiveAgreementWithStructureFunction) {
  // For every assignment: top fires iff some minimal cut set is contained.
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  const NodeId d = t.add_basic_event("D", exp1());
  const NodeId ab = t.add_and("AB", {a, b});
  const NodeId cd = t.add_voting("CD", 1, {c, d});
  t.set_top(t.add_or("T", {ab, cd}));
  const auto cuts = minimal_cut_sets(t);
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::vector<bool> failed{(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0,
                             (mask & 8) != 0};
    bool any_cut = false;
    for (const CutSet& cut : cuts) {
      bool contained = true;
      for (std::uint32_t i : cut)
        if (!failed[i]) contained = false;
      if (contained) any_cut = true;
    }
    EXPECT_EQ(t.evaluate_top(failed), any_cut) << "mask=" << mask;
  }
}

TEST(CutSets, LimitGuardsAgainstExplosion) {
  // 2-of-20 voting has 190 pairs; a limit of 10 must trip.
  FaultTree t;
  std::vector<NodeId> leaves;
  for (int i = 0; i < 20; ++i)
    leaves.push_back(t.add_basic_event("L" + std::to_string(i), exp1()));
  t.set_top(t.add_voting("T", 2, leaves));
  EXPECT_THROW(minimal_cut_sets(t, 10), ModelError);
  EXPECT_EQ(minimal_cut_sets(t, 1u << 20).size(), 190u);
}

TEST(IsCutSet, DetectsNonCutsAndNonMinimal) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  t.set_top(t.add_and("T", {a, b}));
  EXPECT_FALSE(is_cut_set(t, {0}));
  EXPECT_TRUE(is_cut_set(t, {0, 1}));
  EXPECT_TRUE(is_minimal_cut_set(t, {0, 1}));
  FaultTree t2 = simple_or();
  EXPECT_TRUE(is_cut_set(t2, {0, 1}));
  EXPECT_FALSE(is_minimal_cut_set(t2, {0, 1}));
}

}  // namespace
}  // namespace fmtree::ft
