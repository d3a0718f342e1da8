// The kernel's statistical and determinism contract.
//
//  * Statistical continuity: the kernel replaced a scalar engine that drew
//    from a different RNG family (xoshiro streams). On the case-study models
//    every KPI the kernel estimates must overlap the confidence interval the
//    retired engine recorded at the same settings, pinned below — the
//    semantics did not move when the engine changed, only the draws.
//  * Determinism: the kernel's report is bit-identical at any thread count,
//    lane-block width and chunk split (counter streams make trajectory i a
//    pure function of (seed, i)).
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

fmt::FaultMaintenanceTree load_model(const std::string& name) {
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/models/" + name + ".fmt");
  std::ostringstream text;
  text << file.rdbuf();
  return fmt::parse_fmt(text.str());
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

TEST(BatchDeterminism, ReportBitsInvariantToLaneWidth) {
  // A run of n trajectories simulates its first block with min(n, lanes)
  // lanes, so slicing the range into runs of width w exercises blocks of
  // every width up to the kernel's own — the bits must not notice.
  const fmt::FaultMaintenanceTree model = load_model("ei_joint");
  sim::SimOptions opts;
  opts.horizon = 10.0;
  const std::vector<sim::TrajectoryResult> whole =
      sim_test::kernel_run(model, 7, 0, 600, opts);
  for (std::uint64_t width : {1u, 3u, 16u, 64u}) {
    for (std::uint64_t first = 0; first < whole.size(); first += width) {
      const std::uint64_t n = std::min<std::uint64_t>(width, whole.size() - first);
      const std::vector<sim::TrajectoryResult> slice =
          sim_test::kernel_run(model, 7, first, n, opts);
      for (std::uint64_t lane = 0; lane < n; ++lane)
        ASSERT_TRUE(sim_test::bit_identical(whole[first + lane], slice[lane]))
            << "width " << width << ", trajectory " << first + lane;
    }
  }
}

TEST(BatchDeterminism, ChunkSplitsReproduceEveryTrajectoryBit) {
  // Lane L of any chunk [first, first+n) runs CounterStream(seed, first+L):
  // re-running an arbitrary sub-range must reproduce the same trajectories
  // bit-for-bit, independent of how the full range was originally split.
  const fmt::FaultMaintenanceTree model = load_model("compressor");
  sim::SimOptions opts;
  opts.horizon = 10.0;
  const std::vector<sim::TrajectoryResult> reference =
      sim_test::kernel_run(model, 5, 0, 512, opts);
  for (std::uint64_t first = 0; first < 512; first += 37) {
    const std::uint64_t n = std::min<std::uint64_t>(37, 512 - first);
    const std::vector<sim::TrajectoryResult> split =
        sim_test::kernel_run(model, 5, first, n, opts);
    for (std::uint64_t lane = 0; lane < n; ++lane)
      ASSERT_TRUE(sim_test::bit_identical(reference[first + lane], split[lane]))
          << "trajectory " << first + lane;
  }
}

}  // namespace
}  // namespace fmtree::smc
