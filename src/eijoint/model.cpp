#include "eijoint/model.hpp"

#include "util/error.hpp"

namespace fmtree::eijoint {

namespace {

fmt::NodeId add_mode(fmt::FaultMaintenanceTree& model, const ModeParams& mode,
                     const std::string& name_override = {}) {
  return model.add_ebe(
      name_override.empty() ? mode.name : name_override,
      fmt::DegradationModel::erlang(mode.phases, mode.mean_ttf, mode.threshold),
      fmt::RepairSpec{mode.repair_action, mode.repair_cost, mode.repair_time});
}

}  // namespace

fmt::FaultMaintenanceTree build_ei_joint(const EiJointParameters& params,
                                         const maintenance::MaintenancePolicy& policy) {
  if (params.num_bolts < 1 || params.bolt_vote < 1 ||
      params.bolt_vote > params.num_bolts)
    throw ModelError("EI-joint needs 1 <= bolt_vote <= num_bolts");

  fmt::FaultMaintenanceTree model;

  // ---- Electrical branch ----------------------------------------------------
  const fmt::NodeId lipping = add_mode(model, params.lipping);
  const fmt::NodeId contamination = add_mode(model, params.contamination);
  const fmt::NodeId endpost = add_mode(model, params.endpost_wear);
  // Impact damage has no precursor: force an undetectable single-phase model
  // regardless of the (ignored) threshold field.
  const fmt::NodeId impact = model.add_basic_event(
      params.impact_damage.name,
      Distribution::exponential(1.0 / params.impact_damage.mean_ttf));
  const fmt::NodeId electrical = model.add_or(
      "electrical_failure", {lipping, contamination, endpost, impact});

  // ---- Mechanical branch ----------------------------------------------------
  std::vector<fmt::NodeId> bolts;
  bolts.reserve(static_cast<std::size_t>(params.num_bolts));
  for (int b = 1; b <= params.num_bolts; ++b)
    bolts.push_back(add_mode(model, params.bolt,
                             params.bolt.name + "_" + std::to_string(b)));
  const fmt::NodeId bolt_group =
      model.add_voting("bolt_group", params.bolt_vote, bolts);
  const fmt::NodeId fishplate = add_mode(model, params.fishplate);
  const fmt::NodeId glue = add_mode(model, params.glue);
  const fmt::NodeId batter = add_mode(model, params.batter);
  const fmt::NodeId mechanical =
      model.add_or("mechanical_failure", {bolt_group, fishplate, glue, batter});

  model.set_top(model.add_or("ei_joint_failure", {electrical, mechanical}));

  // ---- Rate dependencies ----------------------------------------------------
  if (params.enable_rdep) {
    model.add_rdep("batter_accelerates_lipping", batter, {lipping},
                   params.batter_lipping_factor, params.batter_trigger_phase);
    model.add_rdep("batter_accelerates_glue", batter, {glue},
                   params.batter_glue_factor, params.batter_trigger_phase);
  }

  maintenance::apply_policy(model, policy);
  model.validate();
  return model;
}

}  // namespace fmtree::eijoint
