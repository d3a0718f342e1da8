// Construction of the EI-joint fault maintenance tree.
//
// Structure (reconstructed from the paper's failure-mode taxonomy):
//
//   ei_joint_failure
//   ├─ electrical_failure (OR)
//   │   ├─ lipping                [EBE, grind]
//   │   ├─ contamination          [EBE, clean]
//   │   ├─ endpost_wear           [EBE, replace endpost]
//   │   └─ impact_damage          [BE, undetectable]
//   └─ mechanical_failure (OR)
//       ├─ bolt_group (VOT 2/4)   [EBE x4, tighten]
//       ├─ fishplate_crack        [EBE, replace fishplate]
//       ├─ glue_degradation       [EBE, re-glue]
//       └─ joint_batter           [EBE, grind geometry]
//
//   RDEP: joint_batter at phase >= 3 accelerates lipping (x3) and glue (x2).
#pragma once

#include "eijoint/params.hpp"
#include "fmt/fmtree.hpp"
#include "maintenance/policy.hpp"

namespace fmtree::eijoint {

/// Builds the EI-joint FMT with the given parameters and maintenance policy.
fmt::FaultMaintenanceTree build_ei_joint(const EiJointParameters& params,
                                         const maintenance::MaintenancePolicy& policy);

}  // namespace fmtree::eijoint
