// The fleet determinism matrix: a 50-joint corridor produces bit-identical
// per-joint reports and aggregate KPIs at 1 thread vs N threads, whether
// executed in-process
// (fleet::analyze_fleet) or through the daemon's service layer
// (serve::prepare + serve::Session, the exact code path `fmtree serve`
// drives) — the corridor-scale extension of the per-model bitwise
// determinism contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../batch/report_bits.hpp"
#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "smc/kpi.hpp"

namespace fmtree::fleet {
namespace {

using batch_test::same_bits;

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=6 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0.02;
)";

constexpr std::size_t kJoints = 50;

CorridorSpec corridor_spec() {
  CorridorSpec spec;
  spec.joints = kJoints;
  spec.seed = 17;
  spec.jitter = 0.12;
  spec.coupling = 0.3;
  return spec;
}

FleetOptions options_for(unsigned threads) {
  FleetOptions options;
  options.settings.horizon = 4.0;
  options.settings.trajectories = 60;
  options.settings.seed = 3;
  options.threads = threads;
  return options;
}

void expect_same_kpis(const FleetKpis& a, const FleetKpis& b) {
  EXPECT_EQ(a.joints, b.joints);
  EXPECT_TRUE(same_bits(a.failures_per_year, b.failures_per_year));
  EXPECT_TRUE(same_bits(a.cost_per_year, b.cost_per_year));
  EXPECT_TRUE(same_bits(a.cost_per_km_year, b.cost_per_km_year));
  EXPECT_TRUE(same_bits(a.inspections_per_year, b.inspections_per_year));
  EXPECT_TRUE(same_bits(a.repairs_per_year, b.repairs_per_year));
  EXPECT_TRUE(same_bits(a.replacements_per_year, b.replacements_per_year));
  EXPECT_TRUE(same_bits(a.crew_visits_per_year, b.crew_visits_per_year));
  EXPECT_TRUE(same_bits(a.crew_utilisation, b.crew_utilisation));
  EXPECT_EQ(a.worst, b.worst);
}

void expect_same_outcome(const FleetOutcome& a, const FleetOutcome& b) {
  ASSERT_EQ(a.joints.size(), b.joints.size());
  for (std::size_t i = 0; i < a.joints.size(); ++i) {
    EXPECT_EQ(a.joints[i].name, b.joints[i].name);
    EXPECT_TRUE(same_bits(a.joints[i].scale, b.joints[i].scale)) << i;
    EXPECT_TRUE(same_bits(a.joints[i].report, b.joints[i].report)) << i;
  }
  expect_same_kpis(a.kpis, b.kpis);
}

/// The daemon's code path for the same corridor: expand the request through
/// serve::prepare (which routes through fleet::fleet_plan), execute it on a
/// serve::Session and fold the response with fleet_outcome, as `fmtree fleet
/// --connect` does.
FleetOutcome via_service(const Corridor& corridor, const FleetOptions& options) {
  serve::Request request;
  request.model_text = kModel;
  request.settings = options.settings;
  request.has_fleet = true;
  request.fleet.joints = static_cast<std::uint32_t>(corridor.spec.joints);
  request.fleet.seed = corridor.spec.seed;
  request.fleet.jitter = corridor.spec.jitter;
  request.fleet.coupling = corridor.spec.coupling;

  serve::SessionConfig config;
  config.threads = options.threads;
  config.queue_limit = kJoints;
  serve::Session session(std::move(config));
  serve::PreparedRequest prepared = serve::prepare(request, "models");
  serve::Ticket ticket = session.submit_jobs(std::move(prepared.jobs));
  const serve::Response response = ticket.take();
  EXPECT_TRUE(response.all_done());
  for (std::size_t i = 0; i < corridor.joints.size(); ++i)
    EXPECT_EQ(response.jobs[i].label, corridor.joints[i].name) << i;
  return fleet_outcome(corridor, response.jobs, response.warnings, options);
}

// The matrix axes: thread count, and in-process vs served execution (the
// engine axis has a single value, the kernel).
TEST(FleetDeterminism, FiftyJointMatrixThreadsEnginesAndExecutor) {
  const fmt::FaultMaintenanceTree base = fmt::parse_fmt(kModel);
  const Corridor corridor = generate_corridor(base, corridor_spec());
  const FleetOutcome serial = analyze_fleet(corridor, options_for(1));
  const FleetOutcome pooled = analyze_fleet(corridor, options_for(4));
  const FleetOutcome served = via_service(corridor, options_for(4));
  expect_same_outcome(serial, pooled);
  expect_same_outcome(serial, served);
}

// The kernel replaced a scalar engine with a different RNG family. At
// corridor scale the continuity contract is that every joint's estimates
// overlap the 95% CIs the retired engine recorded for the same corridor and
// settings (pinned below: failures and cost per year, per joint). The
// recorded joints are the first four of corridor_spec() under the jitter
// stream of that time; their scales are pinned as overrides, so the models
// stay the recorded ones whatever the jitter stream draws today.
TEST(FleetDeterminism, EnginesAgreeStatisticallyPerJoint) {
  const fmt::FaultMaintenanceTree base = fmt::parse_fmt(kModel);
  CorridorSpec spec = corridor_spec();
  spec.joints = 4;
  spec.jitter = 0;
  spec.overrides = {{0, 0x1.29e8e8f7e3d91p+0},
                    {1, 0x1.f30b4acb38ap-1},
                    {2, 0x1.00d122b12a7b7p+0},
                    {3, 0x1.b624753b8ed86p-1}};
  const Corridor corridor = generate_corridor(base, spec);
  FleetOptions options = options_for(2);
  options.settings.trajectories = 2000;
  const FleetOutcome outcome = analyze_fleet(corridor, options);
  struct Recorded {
    double failures_lo, failures_hi, cost_lo, cost_hi;
  };
  const Recorded scalar[] = {
      {0.037526450524540837, 0.046223549475459196, 265.2522589332284,
       308.6977410667713},
      {0.047540361564718685, 0.057209638435281436, 321.63982781868185,
       369.9851721813186},
      {0.046147401399660989, 0.055602598600338976, 313.47646269017889,
       360.72353730982104},
      {0.056616333513425154, 0.067133666486574789, 371.6809626727794,
       424.24403732722067},
  };
  const auto overlaps = [](const ConfidenceInterval& a, double lo, double hi) {
    return a.lo <= hi && lo <= a.hi;
  };
  ASSERT_EQ(outcome.joints.size(), 4u);
  for (std::size_t i = 0; i < outcome.joints.size(); ++i) {
    const smc::KpiReport& k = outcome.joints[i].report;
    EXPECT_TRUE(
        overlaps(k.failures_per_year, scalar[i].failures_lo, scalar[i].failures_hi))
        << i;
    EXPECT_TRUE(overlaps(k.cost_per_year, scalar[i].cost_lo, scalar[i].cost_hi)) << i;
  }
}

}  // namespace
}  // namespace fmtree::fleet
