// Fleet-scale corridor models: N electrically insulated joints instantiated
// from one calibrated base model.
//
// The paper studies a single EI joint; an infrastructure manager maintains a
// corridor of hundreds. generate_corridor() derives one model per joint by
// time-rescaling every degradation sojourn of the base model with a
// deterministic per-joint factor composed of
//
//  * jitter    — multiplicative lognormal manufacturing/installation spread
//                with unit mean, drawn from CounterStream(seed, joint_index)
//                so joint i's factor never depends on any other joint;
//  * coupling  — neighbour load-coupling in the RDEP spirit: a joint flanked
//                by weaker-than-average neighbours degrades faster, because
//                their rough running surfaces raise its impact load. The
//                coupling is *mean-field*: it reads only the neighbours'
//                jitter draws (themselves pure functions of (seed, index)),
//                never their analysis results, so every joint stays an
//                independent model with a stable content-addressed cache
//                key. coupling = 0 reproduces the jitter-only corridor
//                bit-exactly;
//  * overrides — explicit per-joint edits (e.g. "joint 17 was just renewed")
//                applied last. Because neither jitter nor coupling reads an
//                override, editing one joint changes exactly one model hash:
//                re-running a 1000-joint corridor after an edit re-simulates
//                one joint and cache-hits the other 999.
//
// Determinism: generate_corridor is a pure function of (base, spec). Two
// calls with equal inputs produce corridors whose models hash identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fmt/fmtree.hpp"

namespace fmtree::fleet {

/// Explicit per-joint edit: an extra lifetime time-scale factor multiplied
/// onto the generated one (scale > 1 = longer-lived, e.g. freshly renewed;
/// scale < 1 = degraded faster than the fleet).
struct JointOverride {
  std::size_t joint = 0;
  double scale = 1.0;
};

struct CorridorSpec {
  std::size_t joints = 50;
  /// Fleet seed: independent of the analysis seed (the same corridor can be
  /// analysed under many simulation seeds and vice versa).
  std::uint64_t seed = 0;
  /// Relative spread of the per-joint lifetime scale (lognormal sigma, unit
  /// mean). 0 = identical joints.
  double jitter = 0.1;
  /// Neighbour load-coupling strength, >= 0 (see file comment). 0 = none.
  double coupling = 0.0;
  /// Track distance between adjacent joints, for per-km cost KPIs.
  double spacing_km = 1.0;
  std::vector<JointOverride> overrides;
};

struct CorridorJoint {
  std::string name;    ///< "joint-0007" (4-digit zero-padded index)
  double scale = 1.0;  ///< final lifetime scale applied to the base model
  fmt::FaultMaintenanceTree model;
};

struct Corridor {
  CorridorSpec spec;
  std::vector<CorridorJoint> joints;

  double length_km() const noexcept {
    return spec.spacing_km * static_cast<double>(joints.size());
  }
};

/// Canonical joint label, shared by sweep jobs and the daemon.
std::string joint_name(std::size_t index);

/// The jitter-only factor of one joint: a pure function of (spec.seed,
/// index), independent of every other joint and of the overrides. Exposed
/// for tests pinning the independence property.
double joint_jitter(const CorridorSpec& spec, std::size_t index);

/// The final lifetime scale of one joint (jitter x coupling x override).
double joint_scale(const CorridorSpec& spec, std::size_t index);

/// Instantiates the corridor. Throws DomainError on an invalid spec (zero
/// joints, negative/non-finite jitter or coupling, non-positive spacing or
/// override scale, an override index out of range).
Corridor generate_corridor(const fmt::FaultMaintenanceTree& base, CorridorSpec spec);

}  // namespace fmtree::fleet
