// The kernel's statistical and determinism contract.
//
//  * Statistical continuity: the kernel replaced a scalar engine that drew
//    from a different RNG family (xoshiro streams). On the case-study models
//    every KPI the kernel estimates must overlap the confidence interval the
//    retired engine recorded at the same settings, pinned below — the
//    semantics did not move when the engine changed, only the draws.
//  * Determinism: the kernel's report is bit-identical at any thread count
//    and chunk split, and whatever its workspace ran before (counter streams
//    make trajectory i a pure function of (seed, i)).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../batch/report_bits.hpp"
#include "../sim/sim_testing.hpp"
#include "fmt/parser.hpp"
#include "smc/kpi.hpp"

namespace fmtree::smc {
namespace {

std::string model_text(const std::string& name) {
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/models/" + name + ".fmt");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

fmt::FaultMaintenanceTree load_model(const std::string& name) {
  return fmt::parse_fmt(model_text(name));
}

bool overlaps(const ConfidenceInterval& a, double lo, double hi) {
  return a.lo <= hi && lo <= a.hi;
}

/// 95% CIs the retired scalar engine recorded over 20000 trajectories
/// (seed 20160628, horizon 10, one thread).
struct RecordedKpis {
  double reliability_lo, reliability_hi;
  double failures_lo, failures_hi;
  double availability_lo, availability_hi;
  double cost_lo, cost_hi;
};

void expect_statistical_agreement(const std::string& model_name,
                                  const RecordedKpis& scalar) {
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 20000;
  s.seed = 20160628;
  s.threads = 1;
  const KpiReport k = analyze(load_model(model_name), s);
  EXPECT_TRUE(overlaps(k.reliability, scalar.reliability_lo, scalar.reliability_hi))
      << k.reliability.point;
  EXPECT_TRUE(overlaps(k.expected_failures, scalar.failures_lo, scalar.failures_hi))
      << k.expected_failures.point;
  EXPECT_TRUE(overlaps(k.availability, scalar.availability_lo, scalar.availability_hi))
      << k.availability.point;
  EXPECT_TRUE(overlaps(k.total_cost, scalar.cost_lo, scalar.cost_hi))
      << k.total_cost.point;
}

TEST(EngineEquivalence, EiJointKpisAgreeStatistically) {
  expect_statistical_agreement(
      "ei_joint", {0.70975975451251005, 0.72225726670751333, 0.324874398185036,
                   0.3408256018149613, 0.99931937212244382, 0.99935124458885571,
                   12960.92052994066, 13115.141114411465});
}

TEST(EngineEquivalence, CompressorKpisAgreeStatistically) {
  expect_statistical_agreement(
      "compressor", {0.29319101560621519, 0.30588599085240675, 1.125389698935489,
                     1.1535103010645094, 0.99425485263913616, 0.99439498213612643,
                     61488.277946935363, 62423.1335025589});
}

// ---- Kernel determinism ------------------------------------------------------

TEST(BatchDeterminism, ReportBitsInvariantToThreadCount) {
  const fmt::FaultMaintenanceTree model = load_model("ei_joint");
  AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 2000;
  s.seed = 99;
  s.discount_rate = 0.04;
  s.threads = 1;
  const KpiReport one = analyze(model, s);
  for (unsigned threads : {3u, 7u}) {
    s.threads = threads;
    EXPECT_TRUE(batch_test::same_bits(one, analyze(model, s))) << threads;
  }
}

TEST(BatchDeterminism, AReusedWorkspaceCarriesNothingBetweenTrajectories) {
  // One workspace and one result run a compressor trajectory with its
  // failure log on, then an EI-joint trajectory with it off. The EI-joint
  // bits must equal a fresh workspace's: no phase, rate, flag, gate state,
  // count or log entry of the compressor may leak into them. The
  // compressor's corrective renewal is moved past the horizon, so most of
  // its trajectories end down, with failed leaves and raised rates.
  std::string text = model_text("compressor");
  const std::string delay = "delay=0.05";
  ASSERT_NE(text.find(delay), std::string::npos);
  text.replace(text.find(delay), delay.size(), "delay=1000");
  const fmt::FaultMaintenanceTree compressor = fmt::parse_fmt(text);
  const fmt::FaultMaintenanceTree ei_joint = load_model("ei_joint");
  const sim::BatchExecutor first(compressor);
  const sim::BatchExecutor second(ei_joint);
  sim::SimOptions logged;
  logged.horizon = 10.0;
  logged.record_failure_log = true;
  sim::SimOptions opts;
  opts.horizon = 10.0;
  sim::BatchWorkspace ws;
  sim::TrajectoryResult reused;
  for (std::uint64_t i = 0; i < 64; ++i) {
    first.run(11, i, logged, ws, reused);
    second.run(11, i, opts, ws, reused);
    sim::BatchWorkspace fresh_ws;
    sim::TrajectoryResult fresh;
    second.run(11, i, opts, fresh_ws, fresh);
    ASSERT_TRUE(sim_test::bit_identical(fresh, reused)) << "trajectory " << i;
  }
}

TEST(BatchDeterminism, ChunkSplitsReproduceEveryTrajectoryBit) {
  // Trajectory first+k of any run [first, first+n) draws from
  // CounterStream(seed, first+k): re-running an arbitrary sub-range must
  // reproduce the same trajectories bit-for-bit, independent of how the full
  // range was originally split.
  const fmt::FaultMaintenanceTree model = load_model("compressor");
  sim::SimOptions opts;
  opts.horizon = 10.0;
  const std::vector<sim::TrajectoryResult> reference =
      sim_test::kernel_run(model, 5, 0, 512, opts);
  for (std::uint64_t first = 0; first < 512; first += 37) {
    const std::uint64_t n = std::min<std::uint64_t>(37, 512 - first);
    const std::vector<sim::TrajectoryResult> split =
        sim_test::kernel_run(model, 5, first, n, opts);
    for (std::uint64_t k = 0; k < n; ++k)
      ASSERT_TRUE(sim_test::bit_identical(reference[first + k], split[k]))
          << "trajectory " << first + k;
  }
}

}  // namespace
}  // namespace fmtree::smc
