// The kernel's oracle: sim::Reference — an ordered event set, gates
// re-evaluated from scratch, the full settle after every event — must
// reproduce every TrajectoryResult field of the kernel bit for bit,
// trajectory by trajectory: on the three case-study models, on the
// EI-joint across the cost curve's inspection rates (where the kernel
// fast-forwards idle rounds) and on every example policy script (the
// random models are in gate_eval_test.cpp).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "lang/runtime.hpp"
#include "sim_testing.hpp"

namespace fmtree::sim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/" + path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

fmt::FaultMaintenanceTree model(const std::string& name) {
  return fmt::parse_fmt(slurp("models/" + name + ".fmt"));
}

SimOptions options(double horizon, double discount_rate, bool log) {
  SimOptions opts;
  opts.horizon = horizon;
  opts.discount_rate = discount_rate;
  opts.record_failure_log = log;
  return opts;
}

TEST(ReferenceKernel, EiJointAgreesBitForBit) {
  sim_test::expect_reference_agrees(model("ei_joint"), options(20.0, 0.04, true), 7, 600);
  // The cost curve's sparse to dense inspection rates: the denser, the more
  // idle rounds the kernel books in its fast-forward loop. At 4/yr a round
  // falls exactly on the horizon.
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  for (const double per_year : {0.5, 4.0, 12.0, 24.0}) {
    const fmt::FaultMaintenanceTree m =
        eijoint::build_ei_joint(params, eijoint::inspections_per_year(per_year));
    for (const double rate : {0.0, 0.05}) {
      SCOPED_TRACE(::testing::Message() << per_year << "/yr, discount " << rate);
      sim_test::expect_reference_agrees(m, options(20.0, rate, false), 9, 400);
    }
  }
}

TEST(ReferenceKernel, ImperfectTiedInspectionsAgreeBitForBit) {
  // 24/yr with detect=0.7 (a round that missed an eligible target drew a
  // number, so it is not idle) and a timed repair (a busy leaf is not
  // eligible); then a second module whose rounds tie with the first at
  // every visit, which ends every fast-forward burst of either.
  eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();
  params.contamination.repair_time = 0.1;
  fmt::FaultMaintenanceTree m =
      eijoint::build_ei_joint(params, eijoint::inspections_per_year(24));
  fmt::InspectionModule sweep = m.inspections()[0];
  sweep.detection_probability = 0.7;
  fmt::InspectionModule electrical = sweep;
  electrical.name = "electrical";
  electrical.cost = 12.0;
  electrical.detection_probability = 1.0;
  electrical.targets = {*m.find("lipping"), *m.find("contamination")};
  m.clear_inspections();
  m.add_inspection(sweep);
  sim_test::expect_reference_agrees(m, options(20.0, 0.05, true), 17, 300);
  m.add_inspection(electrical);
  sim_test::expect_reference_agrees(m, options(20.0, 0.05, true), 17, 300);
}

TEST(ReferenceKernel, CompressorAgreesBitForBit) {
  sim_test::expect_reference_agrees(model("compressor"), options(10.0, 0.0, false), 11,
                                    600);
}

TEST(ReferenceKernel, PumpingStationAgreesBitForBit) {
  sim_test::expect_reference_agrees(model("pumping_station"), options(15.0, 0.02, true),
                                    13, 600);
}

TEST(ReferenceKernel, ExamplePoliciesAgreeBitForBit) {
  const fmt::FaultMaintenanceTree base = model("ei_joint");
  const auto expect_policy_agrees = [&](const std::string& script, std::uint64_t count) {
    const lang::CompiledPolicy policy = lang::compile_policy(script);
    const fmt::FaultMaintenanceTree transformed = lang::apply_policy(policy, base);
    const lang::BoundPolicy bound = lang::bind_policy(policy, transformed);
    SimOptions opts = options(12.0, 0.03, true);
    opts.bound_policy = &bound;
    sim_test::expect_reference_agrees(transformed, opts, 5, count);
  };
  for (const char* name : {"periodic.mpl", "condition_based.mpl", "opportunistic.mpl",
                           "seasonal.mpl", "shared_crew.mpl"}) {
    SCOPED_TRACE(name);
    expect_policy_agrees(slurp(std::string("examples/policies/") + name), 500);
  }

  // At 24 visits a year: the example rules, whose idle rounds the kernel
  // fast-forwards, and three calendars whose idle rounds it must run one by
  // one — a rule that reads `time`, a refilling budget with no window, and a
  // spend in an `else` branch feeding a budget that another calendar reads.
  const std::string c24 =
      "calendar c every 0.041666666666666664 offset 0.041666666666666664 ";
  const std::string scripts[] = {
      c24 + "cost 35 targets all;\n"
            "rule c { if phase >= threshold then repair; }",
      "crew 2;\n" + c24 +
          "cost 35 targets all;\n"
          "rule c {\n"
          "  if phase >= threshold then repair;\n"
          "  if repairs > 0 and phase >= threshold - 1 then repair;\n"
          "}",
      c24 + "cost 12 targets lipping, contamination, joint_batter;\n"
            "rule c { if phase >= threshold then repair; }\n"
            "calendar mechanical every 2 offset 1 cost 35 targets all;\n"
            "rule mechanical { if phase >= threshold then repair; }",
      c24 + "cost 35 targets all;\n"
            "rule c { if phase >= threshold and time >= 6 then repair; }",
      "budget opex = 150 refill 150 every 1;\n" + c24 +
          "cost 18 targets all;\n"
          "rule c {\n"
          "  if phase >= threshold and budget(opex) >= 100\n"
          "    then repair, spend(opex, 100);\n"
          "  if phase >= phases and budget(opex) < 100 then repair;\n"
          "}",
      "budget log = 0;\n" + c24 +
          "cost 35 targets lipping, contamination;\n"
          "rule c { if phase >= threshold then repair else spend(log, 1); }\n"
          "calendar audit every 0.25 cost 20 targets all;\n"
          "rule audit { if phase >= threshold and budget(log) > -40 then repair; }",
  };
  for (const std::string& script : scripts) {
    SCOPED_TRACE(script);
    expect_policy_agrees(script, 300);
  }
}

TEST(ReferenceKernel, TraceRecordingChangesNoResult) {
  const fmt::FaultMaintenanceTree m = model("ei_joint");
  const Reference reference(m);
  const SimOptions opts = options(20.0, 0.0, true);
  for (std::uint64_t index = 0; index < 20; ++index) {
    Trace trace;
    EXPECT_TRUE(sim_test::bit_identical(reference.run(3, index, opts, &trace),
                                        reference.run(3, index, opts)));
    EXPECT_FALSE(sim_test::of_kind(trace, TraceKind::InspectionPerformed).empty());
  }
}

}  // namespace
}  // namespace fmtree::sim
