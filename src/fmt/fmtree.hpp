// Fault maintenance trees (FMTs): fault trees augmented with degradation
// phases, inspections, repairs and replacements — the formalism of Ruijters,
// Guck, van Noort & Stoelinga (DSN 2016).
//
// An FMT couples
//   * a boolean failure structure (AND/OR/VOT gates over leaves),
//   * per-leaf phased degradation (DegradationModel),
//   * rate dependencies (RDEP) accelerating degradation once a trigger holds,
//   * maintenance modules: periodic inspections with condition-based repair,
//     periodic preventive replacement, and corrective renewal on failure,
//   * a cost model distributed over those constructs.
//
// Analyses:
//   * structure()/static_view() expose a classic fault tree for BDD-based
//     baselines (maintenance ignored),
//   * sim::BatchExecutor executes the full timed semantics,
//   * analytic::fmt_to_ctmc gives exact answers for inspection-free models.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fmt/degradation.hpp"
#include "fmt/maintenance.hpp"
#include "ft/tree.hpp"

namespace fmtree::fmt {

using ft::GateType;
using ft::NodeId;

/// A leaf of the FMT: a failure mode with phased degradation and an attached
/// condition-based repair action.
struct ExtendedBasicEvent {
  std::string name;
  DegradationModel degradation;
  RepairSpec repair;
};

class FaultMaintenanceTree {
public:
  // ---- Construction --------------------------------------------------------

  /// Adds a leaf with phased degradation. Returns its node id.
  NodeId add_ebe(std::string name, DegradationModel degradation, RepairSpec repair = {});

  /// Adds a classic basic event: single phase, not inspectable.
  NodeId add_basic_event(std::string name, Distribution lifetime);

  NodeId add_gate(std::string name, GateType type, std::vector<NodeId> children,
                  int k = 0);

  /// Adds a SPARE gate: an AND over the pool in the boolean structure, plus
  /// spare-management semantics (see SpareSpec). Children must be leaves,
  /// each belonging to at most one spare pool; dormancy in [0, 1]. The
  /// static_view/structure() treats the pool as an AND of independent
  /// lifetimes, which ignores dormancy — exact analyses must use the
  /// simulator or the CTMC backend.
  NodeId add_spare(std::string name, std::vector<NodeId> children, double dormancy);

  NodeId add_and(std::string name, std::vector<NodeId> children);
  NodeId add_or(std::string name, std::vector<NodeId> children);
  NodeId add_voting(std::string name, int k, std::vector<NodeId> children);

  void set_top(NodeId id);

  /// Attaches a rate dependency. Trigger may be any node (or, with
  /// trigger_phase >= 1, a leaf whose phase activates the dependency);
  /// dependents must be leaves; factor >= 1.
  void add_rdep(std::string name, NodeId trigger, std::vector<NodeId> dependents,
                double factor, int trigger_phase = 0);

  /// Attaches a functional dependency (FDEP): once the trigger event holds,
  /// the dependent leaves fail instantly. Dependents must be leaves and
  /// distinct from the trigger; cyclic FDEP chains are allowed (the cascade
  /// is a monotone fixpoint).
  void add_fdep(std::string name, NodeId trigger, std::vector<NodeId> dependents);

  /// Index of the new module is returned (used by traces).
  std::size_t add_inspection(InspectionModule module);
  std::size_t add_replacement(ReplacementModule module);
  void set_corrective(CorrectivePolicy policy);

  /// Removes one leaf from an inspection module's target list (no-op if it
  /// is not a target). Used by what-if analyses ("stop grinding — what
  /// happens?"). Removing the last target of a module deletes the module.
  void remove_inspection_target(std::size_t module_index, NodeId leaf);

  /// Reschedules an existing inspection module: period > 0, and a negative
  /// `first_at` means "align the first round with the period" (the same
  /// convention as InspectionModule::first_at). Used by frequency sweeps,
  /// which re-derive one model per candidate inspection interval.
  void set_inspection_schedule(std::size_t module_index, double period,
                               double first_at = -1.0);

  /// Drops every inspection module — the "no planned maintenance" variant
  /// at frequency 0 of a sweep. Corrective maintenance is untouched.
  void clear_inspections() noexcept { inspections_.clear(); }

  /// Replaces the degradation model of an existing leaf, refreshing the
  /// static view's lifetime approximation to match. Maintenance modules,
  /// dependencies and node indices are untouched. Throws ModelError when
  /// `id` is not a leaf. Used by fleet generators, which derive per-asset
  /// variants of one calibrated base model by rescaling phase sojourns.
  void set_ebe_degradation(NodeId id, DegradationModel degradation);

  /// Validates the whole model (structure + maintenance references).
  /// Throws ModelError on violations.
  void validate() const;

  /// Collecting variant: records every violation (M-range codes) into
  /// `diags` instead of throwing on the first one.
  void validate(Diagnostics& diags) const;

  // ---- Accessors -----------------------------------------------------------

  /// The boolean structure. Leaf lifetimes in this view are the
  /// no-maintenance time-to-failure approximations of each EBE (exact for
  /// iid-exponential phases), so classic static analyses (BDD, cut sets,
  /// importance) apply directly.
  const ft::FaultTree& structure() const noexcept { return structure_; }

  std::span<const ExtendedBasicEvent> ebes() const noexcept { return ebes_; }
  const ExtendedBasicEvent& ebe(NodeId id) const;
  /// Leaf position of `id` (shared index space with structure().basic_index).
  std::size_t ebe_index(NodeId id) const { return structure_.basic_index(id); }
  std::size_t num_ebes() const noexcept { return ebes_.size(); }

  std::span<const InspectionModule> inspections() const noexcept { return inspections_; }
  std::span<const ReplacementModule> replacements() const noexcept {
    return replacements_;
  }
  std::span<const RateDependency> rdeps() const noexcept { return rdeps_; }
  std::span<const FunctionalDependency> fdeps() const noexcept { return fdeps_; }
  std::span<const SpareSpec> spares() const noexcept { return spares_; }
  const CorrectivePolicy& corrective() const noexcept { return corrective_; }

  NodeId top() const { return structure_.top(); }
  std::optional<NodeId> find(const std::string& name) const {
    return structure_.find(name);
  }
  const std::string& name(NodeId id) const { return structure_.name(id); }

  /// All leaf node ids in leaf-index order.
  std::span<const NodeId> leaves() const noexcept { return structure_.basic_events(); }

  /// True iff the model can be converted to a CTMC exactly: all phases
  /// exponential, no deterministic maintenance clocks needed (i.e. no
  /// inspection or replacement modules), corrective delay zero or disabled.
  bool is_markovian() const;

private:
  ft::FaultTree structure_;
  std::vector<ExtendedBasicEvent> ebes_;  // parallel to structure_.basic_events()
  std::vector<InspectionModule> inspections_;
  std::vector<ReplacementModule> replacements_;
  std::vector<RateDependency> rdeps_;
  std::vector<FunctionalDependency> fdeps_;
  std::vector<SpareSpec> spares_;
  CorrectivePolicy corrective_{.enabled = false};
};

}  // namespace fmtree::fmt
