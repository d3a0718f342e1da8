#include "ft/cutsets.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/error.hpp"

namespace fmtree::ft {

namespace {

using CutList = std::vector<CutSet>;

bool subsumes(const CutSet& small, const CutSet& big) {
  // True iff small ⊆ big; both are sorted.
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// Removes non-minimal sets: any set that is a superset of another.
void minimize(CutList& cuts) {
  std::sort(cuts.begin(), cuts.end(), [](const CutSet& a, const CutSet& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  CutList out;
  out.reserve(cuts.size());
  for (const CutSet& c : cuts) {
    const bool dominated = std::any_of(out.begin(), out.end(),
                                       [&](const CutSet& m) { return subsumes(m, c); });
    if (!dominated) out.push_back(c);
  }
  cuts = std::move(out);
}

CutSet merge_sets(const CutSet& a, const CutSet& b) {
  CutSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

CutList cross_product(const CutList& a, const CutList& b, std::size_t limit) {
  CutList out;
  out.reserve(a.size() * b.size());
  for (const CutSet& x : a) {
    for (const CutSet& y : b) {
      out.push_back(merge_sets(x, y));
      if (out.size() > limit)
        throw ModelError("cut set expansion exceeded limit; tree too large for MOCUS");
    }
  }
  minimize(out);
  return out;
}

CutList union_lists(CutList a, const CutList& b, std::size_t limit) {
  a.insert(a.end(), b.begin(), b.end());
  if (a.size() > limit)
    throw ModelError("cut set expansion exceeded limit; tree too large for MOCUS");
  minimize(a);
  return a;
}

// Cut sets of "at least k of the given child lists fail".
CutList voting_cuts(const std::vector<CutList>& children, int k, std::size_t limit) {
  // DP over children: atleast[j] = cuts for ">= j failures among prefix".
  // Process children one at a time; atleast[0] is the constant TRUE (empty cut).
  std::vector<CutList> atleast(static_cast<std::size_t>(k) + 1);
  atleast[0] = {CutSet{}};  // empty cut set == always true
  for (const CutList& child : children) {
    // Update from high j to low so each child is used at most once per set.
    for (int j = k; j >= 1; --j) {
      CutList with_child =
          cross_product(atleast[static_cast<std::size_t>(j) - 1], child, limit);
      atleast[static_cast<std::size_t>(j)] =
          union_lists(std::move(atleast[static_cast<std::size_t>(j)]), with_child, limit);
    }
  }
  return atleast[static_cast<std::size_t>(k)];
}

}  // namespace

std::vector<CutSet> minimal_cut_sets(const FaultTree& tree, std::size_t limit) {
  tree.validate();
  std::unordered_map<std::uint32_t, CutList> memo;

  // Children are created before parents, so iterating all node ids in order
  // is a valid bottom-up schedule.
  for (std::uint32_t id = 0; id < tree.node_count(); ++id) {
    const NodeId node{id};
    if (tree.is_basic(node)) {
      memo[id] = {CutSet{static_cast<std::uint32_t>(tree.basic_index(node))}};
      continue;
    }
    const Gate& g = tree.gate(node);
    std::vector<CutList> child_cuts;
    child_cuts.reserve(g.children.size());
    for (NodeId c : g.children) child_cuts.push_back(memo.at(c.value));
    CutList result;
    switch (g.type) {
      case GateType::Or:
        for (CutList& cl : child_cuts) result = union_lists(std::move(result), cl, limit);
        break;
      case GateType::And: {
        result = {CutSet{}};
        for (const CutList& cl : child_cuts) result = cross_product(result, cl, limit);
        break;
      }
      case GateType::Voting:
        result = voting_cuts(child_cuts, g.k, limit);
        break;
    }
    memo[id] = std::move(result);
  }
  CutList top = memo.at(tree.top().value);
  minimize(top);
  return top;
}

}  // namespace fmtree::ft
