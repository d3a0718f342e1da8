// Test oracles for ft::minimal_cut_sets (MOCUS): an independent extraction
// of the minimal cut sets from the BDD, and direct cut-set predicates over
// the structure function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ft/bdd.hpp"
#include "ft/cutsets.hpp"
#include "util/error.hpp"

namespace fmtree::ft {

namespace oracle_detail {

using CutList = std::vector<CutSet>;

inline bool subsumes(const CutSet& small, const CutSet& big) {
  // True iff small ⊆ big; both are sorted.
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// Rauzy's minimal solutions: for a coherent function,
//   minsol(0) = {}, minsol(1) = {{}},
//   minsol((v, lo, hi)) = minsol(lo)
//                       u { {v} u c : c in minsol(hi), not subsumed by
//                           any solution of minsol(lo) }.
inline CutList minimal_solutions(const BddManager& mgr, BddRef f,
                                 std::unordered_map<std::uint32_t, CutList>& memo) {
  if (auto it = memo.find(f.index); it != memo.end()) return it->second;
  const BddManager::NodeView node = mgr.view(f);
  CutList result;
  if (node.is_terminal) {
    if (node.terminal_value) result.push_back(CutSet{});
  } else {
    const CutList without = minimal_solutions(mgr, node.low, memo);
    const CutList with = minimal_solutions(mgr, node.high, memo);
    result = without;
    for (const CutSet& c : with) {
      CutSet candidate;
      candidate.reserve(c.size() + 1);
      // Variables increase with depth, so v precedes everything in c.
      candidate.push_back(node.var);
      candidate.insert(candidate.end(), c.begin(), c.end());
      const bool dominated = std::any_of(
          without.begin(), without.end(),
          [&](const CutSet& l) { return subsumes(l, candidate); });
      if (!dominated) result.push_back(std::move(candidate));
    }
  }
  memo.emplace(f.index, result);
  return result;
}

}  // namespace oracle_detail

/// Minimal cut sets via the BDD (Rauzy's minimal-solutions algorithm), in
/// minimal_cut_sets' (size, lexicographic) order.
inline std::vector<CutSet> minimal_cut_sets_bdd(const FaultTree& tree) {
  tree.validate();
  BddManager mgr(static_cast<std::uint32_t>(tree.basic_events().size()));
  const BddRef f = build_bdd(mgr, tree);
  std::unordered_map<std::uint32_t, oracle_detail::CutList> memo;
  oracle_detail::CutList cuts = oracle_detail::minimal_solutions(mgr, f, memo);
  std::sort(cuts.begin(), cuts.end(), [](const CutSet& a, const CutSet& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return cuts;
}

/// True iff `candidate` is a cut set (not necessarily minimal) of the tree.
inline bool is_cut_set(const FaultTree& tree, const CutSet& candidate) {
  std::vector<bool> failed(tree.basic_events().size(), false);
  for (std::uint32_t i : candidate) {
    if (i >= failed.size()) throw ModelError("cut set references unknown basic event");
    failed[i] = true;
  }
  return tree.evaluate_top(failed);
}

/// True iff `candidate` is a *minimal* cut set: it is a cut set and removing
/// any single element stops it from being one.
inline bool is_minimal_cut_set(const FaultTree& tree, const CutSet& candidate) {
  if (!is_cut_set(tree, candidate)) return false;
  for (std::size_t drop = 0; drop < candidate.size(); ++drop) {
    CutSet reduced;
    reduced.reserve(candidate.size() - 1);
    for (std::size_t i = 0; i < candidate.size(); ++i)
      if (i != drop) reduced.push_back(candidate[i]);
    if (is_cut_set(tree, reduced)) return false;
  }
  return true;
}

}  // namespace fmtree::ft
