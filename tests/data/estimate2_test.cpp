// Fleet data: the maintenance records generate_fleet_data collects beside
// the incident registration.
#include <gtest/gtest.h>

#include "data/generator.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"

namespace fmtree::data {
namespace {

// ---- Fleet data -------------------------------------------------------------------

TEST(FleetData, IncidentsMatchGenerateIncidents) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const FleetData fleet = generate_fleet_data(model, 150, 8.0, 99);
  const IncidentDatabase alone = generate_incidents(model, 150, 8.0, 99);
  EXPECT_EQ(fleet.incidents.size(), alone.size());
}

TEST(FleetData, MaintenanceCountsConsistent) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const FleetData fleet = generate_fleet_data(model, 200, 10.0, 5);
  // Quarterly inspections over 10 years x 200 assets = 8000 rounds.
  EXPECT_EQ(fleet.inspections, 8000u);
  EXPECT_EQ(fleet.replacements, 0u);
}

}  // namespace
}  // namespace fmtree::data
