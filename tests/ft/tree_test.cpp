#include "ft/tree.hpp"

#include <gtest/gtest.h>


#include <cmath>
#include "fmt/parser.hpp"
#include "ft/dot.hpp"
#include "util/error.hpp"

namespace fmtree::ft {
namespace {

Distribution exp1() { return Distribution::exponential(1.0); }

TEST(FaultTree, BuildsAndValidates) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId g = t.add_or("Top", {a, b});
  t.set_top(g);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.basic_events().size(), 2u);
  EXPECT_EQ(t.gates().size(), 1u);
}

TEST(FaultTree, DuplicateNamesRejected) {
  FaultTree t;
  t.add_basic_event("A", exp1());
  EXPECT_THROW(t.add_basic_event("A", exp1()), ModelError);
  const NodeId a = *t.find("A");
  EXPECT_THROW(t.add_or("A", {a}), ModelError);
}

TEST(FaultTree, EmptyNameRejected) {
  FaultTree t;
  EXPECT_THROW(t.add_basic_event("", exp1()), ModelError);
}

TEST(FaultTree, GateNeedsChildren) {
  FaultTree t;
  EXPECT_THROW(t.add_or("G", {}), ModelError);
}

TEST(FaultTree, VotingThresholdValidated) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  EXPECT_THROW(t.add_voting("V0", 0, {a, b}), ModelError);
  EXPECT_THROW(t.add_voting("V3", 3, {a, b}), ModelError);
  EXPECT_NO_THROW(t.add_voting("V2", 2, {a, b}));
}

TEST(FaultTree, ValidateRequiresTop) {
  FaultTree t;
  t.add_basic_event("A", exp1());
  EXPECT_THROW(t.validate(), ModelError);
}

TEST(FaultTree, ValidateRejectsUnreachableNodes) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  t.add_basic_event("Orphan", exp1());
  t.set_top(t.add_or("Top", {a}));
  EXPECT_THROW(t.validate(), ModelError);
}

TEST(FaultTree, FindByName) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  EXPECT_EQ(t.find("A"), a);
  EXPECT_EQ(t.find("missing"), std::nullopt);
}

TEST(FaultTree, AccessorsCheckKind) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId g = t.add_or("G", {a});
  EXPECT_TRUE(t.is_basic(a));
  EXPECT_FALSE(t.is_basic(g));
  EXPECT_THROW(t.basic(g), ModelError);
  EXPECT_THROW(t.gate(a), ModelError);
  EXPECT_THROW(t.basic_index(g), ModelError);
  EXPECT_EQ(t.basic_index(a), 0u);
}

TEST(FaultTree, OutOfRangeIdRejected) {
  FaultTree t;
  t.add_basic_event("A", exp1());
  EXPECT_THROW(t.name(NodeId{99}), ModelError);
  EXPECT_THROW(t.set_top(NodeId{99}), ModelError);
}

TEST(FaultTree, SharedSubtreesAllowed) {
  // DAG: both gates share basic event A.
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  const NodeId g1 = t.add_and("G1", {a, b});
  const NodeId g2 = t.add_and("G2", {a, c});
  t.set_top(t.add_or("Top", {g1, g2}));
  EXPECT_NO_THROW(t.validate());
}

// ---- Structure function evaluation ------------------------------------------

class GateEvaluation : public ::testing::Test {
protected:
  void SetUp() override {
    a_ = tree_.add_basic_event("A", exp1());
    b_ = tree_.add_basic_event("B", exp1());
    c_ = tree_.add_basic_event("C", exp1());
  }
  FaultTree tree_;
  NodeId a_, b_, c_;
};

TEST_F(GateEvaluation, AndGate) {
  tree_.set_top(tree_.add_and("T", {a_, b_, c_}));
  EXPECT_FALSE(tree_.evaluate_top({true, true, false}));
  EXPECT_TRUE(tree_.evaluate_top({true, true, true}));
  EXPECT_FALSE(tree_.evaluate_top({false, false, false}));
}

TEST_F(GateEvaluation, OrGate) {
  tree_.set_top(tree_.add_or("T", {a_, b_, c_}));
  EXPECT_FALSE(tree_.evaluate_top({false, false, false}));
  EXPECT_TRUE(tree_.evaluate_top({false, true, false}));
}

TEST_F(GateEvaluation, VotingGate) {
  tree_.set_top(tree_.add_voting("T", 2, {a_, b_, c_}));
  EXPECT_FALSE(tree_.evaluate_top({true, false, false}));
  EXPECT_TRUE(tree_.evaluate_top({true, false, true}));
  EXPECT_TRUE(tree_.evaluate_top({true, true, true}));
}

TEST_F(GateEvaluation, NestedGates) {
  const NodeId inner = tree_.add_and("Inner", {a_, b_});
  tree_.set_top(tree_.add_or("T", {inner, c_}));
  EXPECT_TRUE(tree_.evaluate_top({true, true, false}));
  EXPECT_TRUE(tree_.evaluate_top({false, false, true}));
  EXPECT_FALSE(tree_.evaluate_top({true, false, false}));
}

TEST_F(GateEvaluation, WrongStateSizeThrows) {
  tree_.set_top(tree_.add_or("T", {a_}));
  EXPECT_THROW(tree_.evaluate_top({true}), ModelError);  // 3 BEs, 1 value
}

TEST(FaultTreeProbabilities, ProbabilitiesAtUsesCdf) {
  FaultTree t;
  t.add_basic_event("A", Distribution::exponential(1.0));
  t.add_basic_event("B", Distribution::deterministic(5.0));
  const NodeId a = *t.find("A");
  t.set_top(t.add_or("T", {a, *t.find("B")}));
  const std::vector<double> p = t.probabilities_at(2.0);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 1 - std::exp(-2.0), 1e-12);
  EXPECT_EQ(p[1], 0.0);  // deterministic(5) has not failed at t=2
}

TEST(FtDot, EmitsAllNodesAndEdges) {
  const FaultTree t = fmt::parse_fmt(R"(
    toplevel T;
    T or A G;
    G and B C;
    A be exp(1); B be exp(1); C be exp(1);
  )").structure();
  const std::string dot = to_dot(t, "example");
  EXPECT_NE(dot.find("digraph \"example\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"A\""), std::string::npos);
  EXPECT_NE(dot.find("[OR]"), std::string::npos);
  EXPECT_NE(dot.find("[AND]"), std::string::npos);
  // 4 edges: T->A, T->G, G->B, G->C.
  std::size_t edges = 0, pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++edges;
    pos += 4;
  }
  EXPECT_EQ(edges, 4u);
}

}  // namespace
}  // namespace fmtree::ft
