#include "ft/bdd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include "../util/rng_testing.hpp"
#include "ft/cutsets.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree::ft {
namespace {

Distribution exp1() { return Distribution::exponential(1.0); }

/// f under a concrete assignment: its probability when every variable is
/// true with probability 0 or 1.
bool evaluate(const BddManager& mgr, BddRef f, const std::vector<bool>& assignment) {
  const std::vector<double> p(assignment.begin(), assignment.end());
  return mgr.probability(f, p) == 1.0;
}

TEST(BddManager, TerminalsAndVar) {
  BddManager mgr(2);
  EXPECT_NE(mgr.zero(), mgr.one());
  const BddRef x = mgr.var(0);
  EXPECT_NE(x, mgr.zero());
  EXPECT_NE(x, mgr.one());
  EXPECT_EQ(mgr.var(0), x);  // unique table: same node
  EXPECT_THROW(mgr.var(5), DomainError);
}

TEST(BddManager, BooleanIdentities) {
  BddManager mgr(2);
  const BddRef x = mgr.var(0);
  const BddRef y = mgr.var(1);
  EXPECT_EQ(mgr.bdd_and(x, mgr.one()), x);
  EXPECT_EQ(mgr.bdd_and(x, mgr.zero()), mgr.zero());
  EXPECT_EQ(mgr.bdd_or(x, mgr.zero()), x);
  EXPECT_EQ(mgr.bdd_or(x, mgr.one()), mgr.one());
  EXPECT_EQ(mgr.bdd_and(x, x), x);
  EXPECT_EQ(mgr.bdd_or(x, x), x);
  EXPECT_EQ(mgr.bdd_and(x, y), mgr.bdd_and(y, x));  // canonical
  EXPECT_EQ(mgr.bdd_or(x, y), mgr.bdd_or(y, x));
}

TEST(BddManager, AtLeastEnumerates) {
  BddManager mgr(4);
  std::vector<BddRef> vars{mgr.var(0), mgr.var(1), mgr.var(2), mgr.var(3)};
  const BddRef k2 = mgr.at_least(2, vars);
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::vector<bool> a(4);
    int count = 0;
    for (int i = 0; i < 4; ++i) {
      a[static_cast<std::size_t>(i)] = (mask >> i) & 1;
      count += (mask >> i) & 1;
    }
    EXPECT_EQ(evaluate(mgr, k2, a), count >= 2) << mask;
  }
  EXPECT_EQ(mgr.at_least(0, vars), mgr.one());
  EXPECT_EQ(mgr.at_least(5, vars), mgr.zero());
}

TEST(BddManager, ProbabilityBasics) {
  BddManager mgr(2);
  const BddRef x = mgr.var(0), y = mgr.var(1);
  const std::vector<double> p{0.1, 0.2};
  EXPECT_NEAR(mgr.probability(mgr.bdd_and(x, y), p), 0.02, 1e-15);
  EXPECT_NEAR(mgr.probability(mgr.bdd_or(x, y), p), 1 - 0.9 * 0.8, 1e-15);
  EXPECT_EQ(mgr.probability(mgr.one(), p), 1.0);
  EXPECT_EQ(mgr.probability(mgr.zero(), p), 0.0);
  EXPECT_THROW(mgr.probability(x, std::vector<double>{0.1}), DomainError);
}

TEST(BuildBdd, MatchesStructureFunctionExhaustively) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  const NodeId d = t.add_basic_event("D", exp1());
  const NodeId v = t.add_voting("V", 2, {a, b, c});
  t.set_top(t.add_or("T", {v, d}));
  BddManager mgr(4);
  const BddRef f = build_bdd(mgr, t);
  for (unsigned mask = 0; mask < 16; ++mask) {
    std::vector<bool> failed(4);
    for (int i = 0; i < 4; ++i) failed[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    EXPECT_EQ(evaluate(mgr, f, failed), t.evaluate_top(failed)) << mask;
  }
}

TEST(TopEventProbability, MatchesExhaustiveEnumeration) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", exp1());
  const NodeId b = t.add_basic_event("B", exp1());
  const NodeId c = t.add_basic_event("C", exp1());
  const NodeId g1 = t.add_and("G1", {a, b});
  t.set_top(t.add_or("T", {g1, c}));
  const std::vector<double> p{0.3, 0.5, 0.1};
  // Enumerate all 8 assignments.
  double expected = 0;
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<bool> failed(3);
    double weight = 1;
    for (int i = 0; i < 3; ++i) {
      const bool on = (mask >> i) & 1;
      failed[static_cast<std::size_t>(i)] = on;
      weight *= on ? p[static_cast<std::size_t>(i)] : 1 - p[static_cast<std::size_t>(i)];
    }
    if (t.evaluate_top(failed)) expected += weight;
  }
  EXPECT_NEAR(top_event_probability(t, p), expected, 1e-12);
}

TEST(TopEventProbability, AtMissionTimeUsesCdfs) {
  FaultTree t;
  const NodeId a = t.add_basic_event("A", Distribution::exponential(0.5));
  const NodeId b = t.add_basic_event("B", Distribution::exponential(0.25));
  t.set_top(t.add_or("T", {a, b}));
  const double time = 2.0;
  const double pa = 1 - std::exp(-0.5 * time);
  const double pb = 1 - std::exp(-0.25 * time);
  EXPECT_NEAR(top_event_probability(t, time), 1 - (1 - pa) * (1 - pb), 1e-12);
}

TEST(TopEventProbability, AgreesWithMinCutBoundsOnRandomTrees) {
  // Random small trees: the rare-event sum over the minimal cut sets bounds
  // the exact probability from above.
  CounterStream rng(33, 0);
  for (int rep = 0; rep < 25; ++rep) {
    FaultTree t;
    std::vector<NodeId> leaves;
    const int n = 3 + static_cast<int>(below(rng, 4));
    for (int i = 0; i < n; ++i)
      leaves.push_back(t.add_basic_event("L" + std::to_string(i), exp1()));
    // Random two-level structure.
    std::vector<NodeId> groups;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      const bool use_and = rng.bernoulli(0.5);
      const std::string name = "G" + std::to_string(i);
      groups.push_back(use_and ? t.add_and(name, {leaves[i], leaves[i + 1]})
                               : t.add_or(name, {leaves[i], leaves[i + 1]}));
    }
    if (leaves.size() % 2 == 1) groups.push_back(leaves.back());
    t.set_top(groups.size() == 1 ? groups[0] : t.add_or("T", groups));
    std::vector<double> p;
    for (int i = 0; i < n; ++i) p.push_back(rng.uniform(0.01, 0.3));
    const double exact = top_event_probability(t, p);
    double rare_event = 0.0;
    for (const CutSet& cut : minimal_cut_sets(t)) {
      double product = 1.0;
      for (std::uint32_t i : cut) product *= p[i];
      rare_event += product;
    }
    EXPECT_LE(exact, rare_event + 1e-12);
    EXPECT_GE(exact, 0.0);
    EXPECT_LE(exact, 1.0);
  }
}

TEST(BddManager, NodeCountForOrChainMatchesAllocationModel) {
  // Each OR step rebuilds the chain below the newly added (deepest) var, so
  // allocations total 2 terminals + n var nodes + sum_{k=2..n}(k-1)
  // = 2 + n + n(n-1)/2. The *final* BDD itself has only n internal nodes;
  // intermediates stay in the unique table (no garbage collection).
  const std::uint32_t n = 10;
  BddManager mgr(n);
  BddRef acc = mgr.zero();
  for (std::uint32_t i = 0; i < n; ++i) acc = mgr.bdd_or(acc, mgr.var(i));
  EXPECT_EQ(mgr.node_count(), 2u + n + n * (n - 1) / 2);
}

}  // namespace
}  // namespace fmtree::ft
