// Model validation: does the calibrated FMT predict the failure behaviour
// observed in a held-out incident database? (The paper's headline check:
// "a model that faithfully predicts the expected number of failures at
// system level".)
#pragma once

#include <string>
#include <vector>

#include "data/estimate.hpp"
#include "data/incident.hpp"
#include "fmt/fmtree.hpp"
#include "smc/kpi.hpp"

namespace fmtree::data {

/// Comparison of a model prediction against an observed rate.
struct ValidationRow {
  std::string label;              ///< "system" or a failure-mode name
  RateEstimate observed;          ///< from the held-out incident database
  ConfidenceInterval predicted;   ///< failures per asset-year from the model
  bool intervals_overlap = false; ///< do the two 95% intervals intersect?
};

struct ValidationReport {
  ValidationRow system;             ///< all modes combined
  std::vector<ValidationRow> modes; ///< one row per failure mode present
  std::uint64_t trajectories = 0;
};

/// Predicts failures/asset-year with the candidate model (via SMC) and
/// compares against the held-out database, overall and per attributed mode.
ValidationReport validate_against(const fmt::FaultMaintenanceTree& model,
                                  const IncidentDatabase& holdout,
                                  const smc::AnalysisSettings& settings);

}  // namespace fmtree::data
