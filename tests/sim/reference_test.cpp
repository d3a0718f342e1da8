// The kernel's oracle: sim::Reference — an ordered event set, gates
// re-evaluated from scratch, the full settle after every event — must
// reproduce every TrajectoryResult field of the kernel bit for bit,
// trajectory by trajectory: on the three case-study models and on every
// example policy script (the random models are in gate_eval_test.cpp).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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
  for (const char* name : {"periodic.mpl", "condition_based.mpl", "opportunistic.mpl",
                           "seasonal.mpl", "shared_crew.mpl"}) {
    SCOPED_TRACE(name);
    const lang::CompiledPolicy policy =
        lang::compile_policy(slurp(std::string("examples/policies/") + name));
    const fmt::FaultMaintenanceTree transformed = lang::apply_policy(policy, base);
    const lang::BoundPolicy bound = lang::bind_policy(policy, transformed);
    SimOptions opts = options(12.0, 0.03, true);
    opts.bound_policy = &bound;
    sim_test::expect_reference_agrees(transformed, opts, 5, 500);
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
    EXPECT_FALSE(trace.of_kind(TraceKind::InspectionPerformed).empty());
  }
}

}  // namespace
}  // namespace fmtree::sim
