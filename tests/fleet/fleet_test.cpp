// The fleet subsystem's core contracts: corridor generation is a pure
// deterministic function of (base, spec); joints are independent (an
// override touches exactly one model hash, coupling reads only neighbour
// jitter); shards are bit-identical to standalone analyses; and the
// content-addressed cache re-simulates exactly the edited joint of a large
// corridor.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "../batch/report_bits.hpp"
#include "batch/fingerprint.hpp"
#include "batch/result_cache.hpp"
#include "fleet/corridor.hpp"
#include "fmt/canonical.hpp"
#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/stats.hpp"
#include "util/text_file.hpp"

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

fmt::FaultMaintenanceTree base_model() { return fmt::parse_fmt(kModel); }

smc::AnalysisSettings tiny_settings(std::uint64_t trajectories = 50) {
  smc::AnalysisSettings s;
  s.horizon = 5.0;
  s.trajectories = trajectories;
  s.seed = 7;
  return s;
}

std::vector<Fingerprint> model_hashes(const Corridor& corridor) {
  std::vector<Fingerprint> hashes;
  hashes.reserve(corridor.joints.size());
  for (const CorridorJoint& joint : corridor.joints)
    hashes.push_back(fmt::canonical_hash(joint.model));
  return hashes;
}

TEST(Corridor, JointNamesAreZeroPadded) {
  EXPECT_EQ(joint_name(0), "joint-0000");
  EXPECT_EQ(joint_name(7), "joint-0007");
  EXPECT_EQ(joint_name(1234), "joint-1234");
}

TEST(Corridor, GenerationIsAPureFunctionOfBaseAndSpec) {
  CorridorSpec spec;
  spec.joints = 12;
  spec.seed = 3;
  spec.jitter = 0.2;
  spec.coupling = 0.4;
  const Corridor a = generate_corridor(base_model(), spec);
  const Corridor b = generate_corridor(base_model(), spec);
  ASSERT_EQ(a.joints.size(), 12u);
  const std::vector<Fingerprint> ha = model_hashes(a);
  const std::vector<Fingerprint> hb = model_hashes(b);
  for (std::size_t i = 0; i < a.joints.size(); ++i) {
    EXPECT_TRUE(same_bits(a.joints[i].scale, b.joints[i].scale)) << i;
    EXPECT_EQ(ha[i], hb[i]) << i;
  }
}

TEST(Corridor, ZeroJitterZeroCouplingReproducesTheBaseModelExactly) {
  CorridorSpec spec;
  spec.joints = 4;
  spec.jitter = 0.0;
  const fmt::FaultMaintenanceTree base = base_model();
  const Corridor corridor = generate_corridor(base, spec);
  for (const CorridorJoint& joint : corridor.joints) {
    EXPECT_EQ(joint.scale, 1.0);
    EXPECT_EQ(fmt::canonical_hash(joint.model), fmt::canonical_hash(base));
  }
}

TEST(Corridor, JitterDrawsAreIndependentOfCorridorSizeAndNeighbours) {
  CorridorSpec small;
  small.joints = 5;
  small.seed = 11;
  CorridorSpec large = small;
  large.joints = 200;
  // Joint i's jitter is a pure function of (seed, i): growing the corridor
  // or adding overrides elsewhere must not move it.
  large.overrides.push_back({0, 2.0});
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_TRUE(same_bits(joint_jitter(small, i), joint_jitter(large, i))) << i;
}

TEST(Corridor, JitterIsLognormalWithUnitMean) {
  // The documented law: a lognormal factor with mean 1 whose log has
  // standard deviation `jitter`.
  CorridorSpec spec;
  spec.joints = 20000;
  spec.jitter = 0.1;
  RunningStats factor, log_factor;
  for (std::size_t i = 0; i < spec.joints; ++i) {
    const double j = joint_jitter(spec, i);
    factor.add(j);
    log_factor.add(std::log(j));
  }
  EXPECT_NEAR(factor.mean(), 1.0, 4 * factor.std_error());
  EXPECT_NEAR(std::sqrt(log_factor.variance()), 0.1, 0.05 * 0.1);
}

TEST(Corridor, CouplingZeroEqualsJitterOnlyBitExactly) {
  CorridorSpec spec;
  spec.joints = 8;
  spec.seed = 5;
  spec.jitter = 0.15;
  spec.coupling = 0.0;
  for (std::size_t i = 0; i < spec.joints; ++i)
    EXPECT_TRUE(same_bits(joint_scale(spec, i), joint_jitter(spec, i))) << i;
  // With coupling on, a joint flanked by weak (jitter < 1) neighbours
  // degrades faster: its scale drops below its own jitter draw.
  CorridorSpec coupled = spec;
  coupled.coupling = 1.0;
  for (std::size_t i = 0; i < spec.joints; ++i)
    EXPECT_LE(joint_scale(coupled, i), joint_jitter(coupled, i)) << i;
}

TEST(Corridor, OverrideChangesExactlyOneModelHash) {
  CorridorSpec spec;
  spec.joints = 10;
  spec.seed = 2;
  const Corridor plain = generate_corridor(base_model(), spec);
  CorridorSpec edited_spec = spec;
  edited_spec.overrides.push_back({3, 2.0});
  const Corridor edited = generate_corridor(base_model(), edited_spec);
  const std::vector<Fingerprint> before = model_hashes(plain);
  const std::vector<Fingerprint> after = model_hashes(edited);
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 3) EXPECT_NE(before[i], after[i]);
    else EXPECT_EQ(before[i], after[i]) << i;
  }
}

TEST(Corridor, InvalidSpecsThrow) {
  const fmt::FaultMaintenanceTree base = base_model();
  CorridorSpec spec;
  spec.joints = 0;
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
  spec = {};
  spec.jitter = -0.1;
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
  spec = {};
  spec.coupling = std::nan("");
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
  spec = {};
  spec.spacing_km = 0.0;
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
  spec = {};
  spec.joints = 3;
  spec.overrides.push_back({3, 1.5});  // out of range
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
  spec = {};
  spec.overrides.push_back({0, 0.0});  // non-positive scale
  EXPECT_THROW(generate_corridor(base, spec), DomainError);
}

TEST(Fleet, ShardsAreBitIdenticalToStandaloneAnalyses) {
  CorridorSpec spec;
  spec.joints = 5;
  spec.seed = 4;
  const Corridor corridor = generate_corridor(base_model(), spec);
  FleetOptions options;
  options.settings = tiny_settings();
  options.threads = 4;
  const FleetOutcome outcome = analyze_fleet(corridor, options);
  ASSERT_EQ(outcome.joints.size(), 5u);
  for (std::size_t i = 0; i < corridor.joints.size(); ++i) {
    const smc::KpiReport direct =
        smc::analyze(corridor.joints[i].model, options.settings);
    EXPECT_TRUE(same_bits(outcome.joints[i].report, direct)) << i;
  }
}

// settings.policy is the corridor's policy: every joint runs under it, and
// its budget refills feed the corridor budget.
TEST(Fleet, SettingsPolicyRunsEveryJointAndFundsTheBudget) {
  const std::string root = FMTREE_SOURCE_DIR;
  Diagnostics diags;
  std::optional<lang::CompiledPolicy> compiled = lang::compile_policy(
      read_text_file(root + "/examples/policies/shared_crew.mpl"), diags);
  ASSERT_TRUE(compiled) << diags.to_json();
  CorridorSpec spec;
  spec.joints = 3;
  spec.seed = 7;
  const fmt::FaultMaintenanceTree base =
      fmt::parse_fmt(read_text_file(root + "/models/ei_joint.fmt"));
  const Corridor corridor = generate_corridor(base, spec);
  FleetOptions options;
  options.settings.horizon = 20.0;
  options.settings.trajectories = 500;
  options.settings.seed = 1;
  const FleetOutcome plain = analyze_fleet(corridor, options);
  options.settings.policy = std::make_shared<const lang::CompiledPolicy>(*compiled);
  const FleetOutcome scripted = analyze_fleet(corridor, options);

  for (std::size_t i = 0; i < corridor.joints.size(); ++i) {
    const smc::KpiReport direct =
        smc::analyze(corridor.joints[i].model, options.settings);
    EXPECT_TRUE(same_bits(scripted.joints[i].report, direct)) << i;
  }
  EXPECT_NE(scripted.kpis.cost_per_year, plain.kpis.cost_per_year);
  // One 800-a-year corridor budget per joint.
  EXPECT_DOUBLE_EQ(scripted.kpis.budget_per_year, 2400.0);
  EXPECT_DOUBLE_EQ(scripted.kpis.budget_utilisation,
                   scripted.kpis.cost_per_year / scripted.kpis.budget_per_year);
  EXPECT_DOUBLE_EQ(plain.kpis.budget_per_year, 0.0);
}

// The headline cache property: editing one joint of a large corridor
// re-simulates exactly that joint; every other shard replays from cache.
TEST(Fleet, EditedJointOfALargeCorridorResimulatesExactlyOneJoint) {
  constexpr std::size_t kJoints = 1000;
  CorridorSpec spec;
  spec.joints = kJoints;
  spec.seed = 9;
  const fmt::FaultMaintenanceTree base = base_model();
  FleetOptions options;
  options.settings = tiny_settings(/*trajectories=*/2);
  options.settings.horizon = 1.0;
  batch::ResultCache cache;  // memory tier is enough for the invariant

  const Corridor corridor = generate_corridor(base, spec);
  const FleetOutcome first = analyze_fleet(corridor, options, &cache);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, kJoints);

  CorridorSpec edited_spec = spec;
  edited_spec.overrides.push_back({123, 1.5});
  const Corridor edited = generate_corridor(base, edited_spec);
  const FleetOutcome second = analyze_fleet(edited, options, &cache);
  EXPECT_EQ(second.cache_hits, kJoints - 1);
  EXPECT_EQ(second.cache_misses, 1u);
  // And the replayed 999 joints carry the first run's bits.
  for (std::size_t i = 0; i < kJoints; ++i) {
    if (i == 123) continue;
    EXPECT_TRUE(same_bits(first.joints[i].report, second.joints[i].report)) << i;
  }
}

TEST(Fleet, AggregatesAreExactSumsWithCrewAndWorstK) {
  CorridorSpec spec;
  spec.joints = 3;
  spec.jitter = 0.0;
  spec.spacing_km = 2.0;
  const Corridor corridor = generate_corridor(base_model(), spec);

  std::vector<JointSummary> summaries(3);
  for (std::size_t i = 0; i < 3; ++i) {
    JointSummary& s = summaries[i];
    s.name = joint_name(i);
    s.report.trajectories = 100;
    s.report.horizon = 10.0;
    s.report.failures_per_year.point = 0.1 * static_cast<double>(i + 1);
    s.report.cost_per_year.point = 100.0 * static_cast<double>(i + 1);
    s.report.mean_inspections = 20.0;  // 2 rounds / yr over horizon 10
    s.report.mean_repairs = 5.0;
    s.report.mean_replacements = 1.0;
  }
  FleetOptions options;
  options.resources.crews = 1;
  options.resources.visits_per_crew_year = 10.0;
  options.worst_k = 2;
  const FleetKpis kpis = aggregate_fleet(corridor, summaries, options);
  EXPECT_EQ(kpis.joints, 3u);
  EXPECT_DOUBLE_EQ(kpis.corridor_length_km, 6.0);
  EXPECT_DOUBLE_EQ(kpis.failures_per_year, 0.6);
  EXPECT_DOUBLE_EQ(kpis.cost_per_year, 600.0);
  EXPECT_DOUBLE_EQ(kpis.cost_per_km_year, 100.0);
  EXPECT_DOUBLE_EQ(kpis.inspections_per_year, 6.0);
  EXPECT_DOUBLE_EQ(kpis.repairs_per_year, 1.5);
  EXPECT_DOUBLE_EQ(kpis.replacements_per_year, 0.3);
  // visits = inspections + failures + replacements = 6.9 of 10 capacity
  EXPECT_DOUBLE_EQ(kpis.crew_visits_per_year, 6.9);
  EXPECT_DOUBLE_EQ(kpis.crew_capacity_per_year, 10.0);
  EXPECT_DOUBLE_EQ(kpis.crew_utilisation, 0.69);
  ASSERT_EQ(kpis.worst.size(), 2u);
  EXPECT_EQ(kpis.worst[0], 2u);  // highest failures first
  EXPECT_EQ(kpis.worst[1], 1u);
}

TEST(Fleet, FailedShardBecomesAWarningAndIsExcludedFromAggregates) {
  CorridorSpec spec;
  spec.joints = 4;
  const Corridor corridor = generate_corridor(base_model(), spec);
  FleetOptions options;
  options.settings = tiny_settings(/*trajectories=*/10);
  options.threads = 1;
  options.max_retries = 0;
  const fault::Scope faults({"sweep.task:error,nth=1,limit=1"});
  const FleetOutcome outcome = analyze_fleet(corridor, options);
  EXPECT_EQ(outcome.jobs_failed, 1u);
  EXPECT_EQ(outcome.kpis.joints, 3u);
  // Every job the cache did not answer is a miss, the failed shard included.
  EXPECT_EQ(outcome.cache_hits + outcome.cache_misses, corridor.joints.size());
  bool found = false;
  for (const Diagnostic& d : outcome.warnings) found = found || d.code == "F101";
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace fmtree::fleet
