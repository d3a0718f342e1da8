// Minimal cut set computation (bottom-up MOCUS-style expansion).
#pragma once

#include <vector>

#include "ft/tree.hpp"

namespace fmtree::ft {

/// A cut set: sorted, duplicate-free basic-event indices (basic_events()
/// order) whose joint failure causes the top event.
using CutSet = std::vector<std::uint32_t>;

/// All minimal cut sets of the tree, each sorted; the list itself is sorted
/// by (size, lexicographic) for deterministic output.
///
/// Complexity is exponential in the worst case; intended for case-study
/// sized trees (tens of basic events). `limit` bounds the number of
/// intermediate sets as a safety valve (throws ModelError when exceeded).
std::vector<CutSet> minimal_cut_sets(const FaultTree& tree,
                                     std::size_t limit = 1u << 20);

}  // namespace fmtree::ft
