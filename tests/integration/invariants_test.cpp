// Per-trajectory invariants, checked across every case-study model and many
// seeds: whatever the maintenance regime, these must hold for each run.
#include <gtest/gtest.h>

#include <cmath>

#include "compressor/compressor.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "../sim/sim_testing.hpp"

namespace fmtree {
namespace {

struct ModelCase {
  std::string name;
  fmt::FaultMaintenanceTree model;
};

std::vector<std::string> model_names() {
  return {"ei-current", "ei-corrective", "ei-renewal", "compressor",
          "station", "spare-pool"};
}

fmt::FaultMaintenanceTree make_model(const std::string& name) {
  if (name == "ei-current")
    return eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                   eijoint::current_policy());
  if (name == "ei-corrective")
    return eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                   eijoint::corrective_only());
  if (name == "ei-renewal")
    return eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                   eijoint::with_renewal(10));
  if (name == "compressor")
    return compressor::build_compressor(compressor::CompressorParameters::defaults(),
                                        compressor::current_plan());
  if (name == "station") {
    return fmt::parse_fmt(R"(
      toplevel Station;
      Station or PumpsDown Controller;
      PumpsDown vot 2 PumpA PumpB;
      PumpA ebe phases=4 mean=6 threshold=3 repair_cost=400 repair_time=0.02;
      PumpB ebe phases=4 mean=6 threshold=3 repair_cost=400 repair_time=0.02;
      Controller be exp(0.04);
      rdep Overload factor=2 trigger=PumpA targets PumpB;
      fdep Surge trigger=Controller targets PumpA;
      inspection Rounds period=0.25 cost=80 detect=0.85 targets PumpA PumpB;
      corrective cost=20000 delay=0.05 downtime_rate=100000;
    )");
  }
  // spare-pool: cold standby plus maintenance.
  return fmt::parse_fmt(R"(
    toplevel Top;
    Top or Pool Other;
    Pool spare dormancy=0.2 P S;
    P ebe phases=3 mean=4 threshold=2 repair_cost=100;
    S ebe phases=3 mean=4 threshold=2 repair_cost=100;
    Other be exp(0.05);
    inspection I period=0.5 cost=10 targets P S;
    corrective cost=1000 delay=0.1 downtime_rate=500;
  )");
}

class TrajectoryInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(TrajectoryInvariants, Hold) {
  const auto& [name, seed] = GetParam();
  const fmt::FaultMaintenanceTree model = make_model(name);
  const double horizon = 25.0;
  sim::SimOptions opts;
  opts.horizon = horizon;
  opts.record_failure_log = true;
  opts.discount_rate = 0.05;

  for (const sim::TrajectoryResult& r : sim_test::kernel_run(model, seed, 0, 40, opts)) {
    // Failure accounting is internally consistent.
    ASSERT_EQ(r.failure_log.size(), r.failures);
    std::uint64_t attributed = 0;
    for (std::uint64_t f : r.failures_per_leaf) attributed += f;
    ASSERT_EQ(attributed, r.failures);
    std::uint64_t repairs = 0;
    for (std::uint64_t rep : r.repairs_per_leaf) repairs += rep;
    ASSERT_EQ(repairs, r.repairs);
    // First failure is a failure; survival means no failures.
    if (r.failures > 0) {
      ASSERT_LE(r.first_failure_time, horizon);
      ASSERT_DOUBLE_EQ(r.first_failure_time, r.failure_log.front().time);
    } else {
      ASSERT_TRUE(std::isinf(r.first_failure_time));
    }
    // Failure times ordered within the window, causes valid.
    double prev = 0;
    for (const sim::FailureRecord& f : r.failure_log) {
      ASSERT_GE(f.time, prev);
      ASSERT_LE(f.time, horizon);
      ASSERT_LT(f.cause_leaf, model.num_ebes());
      prev = f.time;
    }
    // Downtime bounded by the window and only present with failures.
    ASSERT_GE(r.downtime, 0.0);
    ASSERT_LE(r.downtime, horizon + 1e-9);
    if (r.downtime > 0) {
      ASSERT_GE(r.failures, 1u);
    }
    // Costs are nonnegative and discounting never increases them.
    for (double c : {r.cost.inspection, r.cost.repair, r.cost.replacement,
                     r.cost.corrective, r.cost.downtime}) {
      ASSERT_GE(c, 0.0);
    }
    ASSERT_LE(r.discounted_cost.total(), r.cost.total() + 1e-9);
    ASSERT_GE(r.discounted_cost.total(),
              r.cost.total() * std::exp(-0.05 * horizon) - 1e-9);
    // Scheduled-activity counts match the deterministic calendars.
    std::uint64_t expected_inspections = 0;
    for (const fmt::InspectionModule& m : model.inspections()) {
      if (m.first_at <= horizon)
        expected_inspections += 1 + static_cast<std::uint64_t>(std::floor(
                                        (horizon - m.first_at) / m.period + 1e-9));
    }
    ASSERT_EQ(r.inspections, expected_inspections);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, TrajectoryInvariants,
    ::testing::Combine(::testing::ValuesIn(model_names()),
                       ::testing::Values(1u, 777u, 424242u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>& p) {
      std::string name = std::get<0>(p.param) + "_seed" +
                         std::to_string(std::get<1>(p.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace fmtree
