#include "fleet/corridor.hpp"

#include <cmath>
#include <cstdio>

#include "sim/sampler.hpp"
#include "util/error.hpp"

namespace fmtree::fleet {

namespace {

void validate_spec(const CorridorSpec& spec) {
  if (spec.joints == 0) throw DomainError("corridor needs >= 1 joint");
  if (!std::isfinite(spec.jitter) || spec.jitter < 0)
    throw DomainError("corridor jitter must be finite and >= 0");
  if (!std::isfinite(spec.coupling) || spec.coupling < 0)
    throw DomainError("corridor coupling must be finite and >= 0");
  if (!std::isfinite(spec.spacing_km) || !(spec.spacing_km > 0))
    throw DomainError("corridor spacing must be positive");
  for (const JointOverride& o : spec.overrides) {
    if (o.joint >= spec.joints)
      throw DomainError("corridor override joint index out of range");
    if (!std::isfinite(o.scale) || !(o.scale > 0))
      throw DomainError("corridor override scale must be positive");
  }
}

/// Excess load a neighbour with jitter factor j exerts: a short-lived joint
/// (j < 1) has a rougher running surface and transfers impact load; a
/// long-lived one (j >= 1) exerts none. Reads only the jitter draw, never
/// the neighbour's final scale, so overrides stay local to their joint.
double excess_load(const CorridorSpec& spec, std::size_t index) {
  const double j = joint_jitter(spec, index);
  return j < 1.0 ? 1.0 / j - 1.0 : 0.0;
}

}  // namespace

std::string joint_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "joint-%04zu", index);
  return buf;
}

double joint_jitter(const CorridorSpec& spec, std::size_t index) {
  if (spec.jitter == 0) return 1.0;
  // Lognormal with unit mean: mu = -sigma^2/2. One draw per joint from the
  // joint's own stream, so the factor is a pure function of (seed, index).
  // The fleet seed is not the analysis seed: only an analysis run under the
  // same seed value would start trajectory `index` on these two draws.
  CounterStream stream(spec.seed, index);
  return sim::SojournSampler::sample(
      Distribution::lognormal(-0.5 * spec.jitter * spec.jitter, spec.jitter), stream);
}

double joint_scale(const CorridorSpec& spec, std::size_t index) {
  double scale = joint_jitter(spec, index);
  if (spec.coupling > 0) {
    // Mean-field neighbour coupling: the average excess load of the flanking
    // joints divides the lifetime scale. Edge joints have one neighbour; the
    // missing side contributes no load.
    double load = 0.0;
    if (index > 0) load += excess_load(spec, index - 1);
    if (index + 1 < spec.joints) load += excess_load(spec, index + 1);
    scale /= 1.0 + spec.coupling * 0.5 * load;
  }
  for (const JointOverride& o : spec.overrides)
    if (o.joint == index) scale *= o.scale;
  return scale;
}

Corridor generate_corridor(const fmt::FaultMaintenanceTree& base, CorridorSpec spec) {
  validate_spec(spec);
  Corridor corridor;
  corridor.joints.reserve(spec.joints);
  for (std::size_t i = 0; i < spec.joints; ++i) {
    CorridorJoint joint;
    joint.name = joint_name(i);
    joint.scale = joint_scale(spec, i);
    joint.model = base;
    if (joint.scale != 1.0) {
      for (fmt::NodeId leaf : base.leaves()) {
        const fmt::DegradationModel& d = base.ebe(leaf).degradation;
        std::vector<Distribution> sojourns;
        sojourns.reserve(d.sojourns().size());
        for (const Distribution& s : d.sojourns())
          sojourns.push_back(s.scaled(joint.scale));
        joint.model.set_ebe_degradation(
            leaf, fmt::DegradationModel(std::move(sojourns), d.threshold_phase()));
      }
    }
    corridor.joints.push_back(std::move(joint));
  }
  corridor.spec = std::move(spec);
  return corridor;
}

}  // namespace fmtree::fleet
