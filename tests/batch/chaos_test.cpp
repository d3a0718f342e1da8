// Chaos suite: sweeps under injected faults. Every test here carries the
// "Chaos" prefix so the ctest entry chaos_ambient_batch (`ctest -L chaos`)
// can run exactly this suite again with a sweep.task fault armed from
// FMTREE_FAULTS. The tests arm the faults they count themselves, which
// shadows the ambient spec while it lasts, so they pass with and without it.
//
// The invariant under test is the robustness contract of DESIGN.md
// ("Failure semantics"): injected faults may cost retries, recomputation or
// quarantined cache entries, but every *successful* report is bit-identical
// to the fault-free run, and a cache directory that absorbed crashes mid-
// write still resumes into identical bits.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "report_bits.hpp"
#include "smc/kpi.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::batch {
namespace {

using batch_test::same_bits;

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=6 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.25 cost=20 targets A;
  corrective cost=5000 delay=0.02;
)";

smc::AnalysisSettings small_settings(std::uint64_t trajectories = 300) {
  smc::AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = trajectories;
  s.seed = 11;
  return s;
}

SweepPlan small_plan(unsigned threads = 2) {
  SweepPlan plan;
  plan.threads = threads;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SweepJob job;
    job.label = "seed-" + std::to_string(seed);
    job.model = fmt::parse_fmt(kModel);
    job.settings = small_settings();
    job.settings.seed = seed;
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  return dir;
}

TEST(ChaosSweep, InjectedTaskFaultHealsBitIdentically) {
  const SweepOutcome baseline = run_sweep(small_plan());
  // The first claimed task throws; the job becomes a failure record, then
  // heals through the retry path (a one-job pool run, which never hits
  // sweep.task). The healed report must carry no trace of the fault.
  const fault::Scope faults({"sweep.task:error,nth=1,limit=1"});
  const SweepOutcome chaos = run_sweep(small_plan());
  EXPECT_EQ(chaos.jobs_failed, 0u);
  EXPECT_GE(chaos.retries, 1u);
  ASSERT_EQ(chaos.results.size(), baseline.results.size());
  for (std::size_t i = 0; i < chaos.results.size(); ++i) {
    EXPECT_TRUE(chaos.results[i].completed);
    EXPECT_TRUE(same_bits(chaos.results[i].report, baseline.results[i].report));
  }
}

TEST(ChaosSweep, ExhaustedRetriesBecomeAStructuredFailureNotACrash) {
  SweepPlan plan = small_plan();
  plan.max_retries = 0;  // the injected (transient) fault has no budget left
  plan.retry_backoff_ms = 0.0;
  const fault::Scope faults({"sweep.task:error,nth=1,limit=1"});
  const SweepOutcome outcome = run_sweep(plan);
  EXPECT_EQ(outcome.jobs_failed, 1u);
  EXPECT_FALSE(outcome.truncated);  // failed jobs are accounted, not a stop
  std::size_t failed = 0, completed = 0;
  for (const JobResult& r : outcome.results) {
    if (r.failed) {
      ++failed;
      EXPECT_EQ(r.failure.kind, "injected");
      EXPECT_TRUE(r.failure.transient);
      EXPECT_EQ(r.failure.attempts, 1u);
      EXPECT_FALSE(r.completed);
    } else if (r.completed) {
      ++completed;  // job-level isolation: the rest of the plan finished
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(completed, outcome.results.size() - 1);
}

TEST(ChaosSweep, WatchdogConvertsAStallIntoAStalledStop) {
  SweepPlan plan = small_plan(/*threads=*/2);
  plan.stall_timeout_s = 0.25;
  // One worker parks for far longer than the stall window; the watchdog must
  // stop the sweep with a diagnostic instead of letting it hang silently.
  const fault::Scope faults({"sweep.task:stall=1500,nth=1,limit=1"});
  const SweepOutcome outcome = run_sweep(plan);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_EQ(outcome.stop_reason, smc::StopReason::Stalled);
  bool saw_b102 = false;
  for (const Diagnostic& d : outcome.warnings)
    if (d.code == "B102") saw_b102 = true;
  EXPECT_TRUE(saw_b102);
}

TEST(ChaosSweep, ARetryCutByTheBudgetStopsTheSweepWithItsReason) {
  // The first pass fails the one job's first chunk; its retry counts against
  // the plan's trajectory budget and stops there, as a first pass would.
  smc::RunControl control;
  control.set_trajectory_budget(500);
  SweepPlan plan = small_plan(/*threads=*/1);
  plan.jobs.resize(1);
  plan.jobs[0].settings.trajectories = 1000;
  plan.control = &control;
  plan.retry_backoff_ms = 0.0;
  const fault::Scope faults({"sweep.task:error,nth=1,limit=1"});
  const SweepOutcome outcome = run_sweep(plan);
  EXPECT_EQ(outcome.retries, 1u);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_EQ(outcome.stop_reason, smc::StopReason::BudgetExhausted);
  const JobResult& job = outcome.results[0];
  EXPECT_FALSE(job.completed);
  EXPECT_FALSE(job.failed);
  EXPECT_TRUE(job.report.truncated);
  EXPECT_GE(job.report.trajectories, 500u);
  EXPECT_LT(job.report.trajectories, 1000u);
}

TEST(ChaosCache, CorruptedWritesAreQuarantinedOnReadAndRecomputed) {
  const std::string dir = fresh_dir("fmtree_chaos_corrupt_write");
  const SweepPlan plan = small_plan();
  const SweepOutcome baseline = run_sweep(plan);
  {
    // Every disk write publishes a silently corrupted payload.
    const fault::Scope faults({"cache.write:corrupt"});
    ResultCache cache(dir);
    const SweepOutcome chaos = run_sweep(plan, &cache);
    for (std::size_t i = 0; i < chaos.results.size(); ++i)
      EXPECT_TRUE(
          same_bits(chaos.results[i].report, baseline.results[i].report));
  }
  // A fresh cache (≈ new process) must detect every corrupted entry via the
  // content hash, quarantine it, recompute, and still match the baseline.
  ResultCache cache(dir);
  const SweepOutcome resumed = run_sweep(plan, &cache);
  EXPECT_EQ(resumed.cache_hits, 0u);
  for (std::size_t i = 0; i < resumed.results.size(); ++i) {
    EXPECT_TRUE(resumed.results[i].completed);
    EXPECT_TRUE(
        same_bits(resumed.results[i].report, baseline.results[i].report));
  }
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.corrupt_entries, plan.jobs.size());
  EXPECT_EQ(st.quarantined, plan.jobs.size());
  EXPECT_EQ(std::distance(
                std::filesystem::directory_iterator(cache.quarantine_directory()),
                std::filesystem::directory_iterator{}),
            static_cast<std::ptrdiff_t>(plan.jobs.size()));
  // The warnings surfaced on the outcome (C101 per quarantined entry).
  std::size_t c101 = 0;
  for (const Diagnostic& d : resumed.warnings)
    if (d.code == "C101") ++c101;
  EXPECT_EQ(c101, plan.jobs.size());
}

// Satellite acceptance: randomized crash points mid-write. Each round arms
// seeded probabilistic faults across the cache-write, publish-rename and
// worker-task sites (each well above the 1% floor), runs the sweep (the
// "crashing" run), then resumes against the same directory with faults
// disarmed and asserts bitwise-identical reports.
TEST(ChaosCache, RandomizedCrashPointsResumeBitIdentically) {
  const SweepPlan plan = small_plan();
  const SweepOutcome baseline = run_sweep(plan);
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const std::string dir =
        fresh_dir("fmtree_chaos_resume_" + std::to_string(round));
    {
      const fault::Scope faults(
          {"cache.write:corrupt,p=0.4,seed=" + std::to_string(round),
           "cache.rename:error,p=0.4,seed=" + std::to_string(round + 100),
           "sweep.task:error,p=0.05,seed=" + std::to_string(round + 200)});
      ResultCache cache(dir);
      SweepPlan crashing = plan;
      crashing.retry_backoff_ms = 1.0;  // keep the chaos suite fast
      const SweepOutcome chaos = run_sweep(crashing, &cache);
      EXPECT_EQ(chaos.jobs_failed, 0u) << "round " << round;
      for (std::size_t i = 0; i < chaos.results.size(); ++i)
        EXPECT_TRUE(
            same_bits(chaos.results[i].report, baseline.results[i].report))
            << "round " << round << " job " << i;
    }
    ResultCache cache(dir);
    const SweepOutcome resumed = run_sweep(plan, &cache);
    ASSERT_EQ(resumed.results.size(), baseline.results.size());
    for (std::size_t i = 0; i < resumed.results.size(); ++i) {
      EXPECT_TRUE(resumed.results[i].completed) << "round " << round;
      EXPECT_TRUE(
          same_bits(resumed.results[i].report, baseline.results[i].report))
          << "round " << round << " job " << i;
    }
  }
}

// The headline acceptance criterion: the EI-joint cost-curve sweep under
// ≥1% fault rates on the cache-write path plus worker faults completes via
// retries and resume, and the final report is bitwise-identical to the
// fault-free run.
TEST(ChaosSweep, EiJointCostCurveSurvivesInjectedFaultsBitIdentically) {
  const SweepPlan plan = eijoint::cost_curve_plan(
      eijoint::EiJointParameters::defaults(), small_settings(200));
  const SweepOutcome baseline = run_sweep(plan);

  const std::string dir = fresh_dir("fmtree_chaos_eijoint");
  {
    const fault::Scope faults({"cache.write:error,p=0.25,seed=5",
                               "cache.read:corrupt,p=0.10,seed=6",
                               "sweep.task:error,p=0.10,seed=7"});
    ResultCache cache(dir);
    SweepPlan chaos_plan = plan;
    chaos_plan.retry_backoff_ms = 1.0;
    const SweepOutcome chaos = run_sweep(chaos_plan, &cache);
    EXPECT_EQ(chaos.jobs_failed, 0u);
    ASSERT_EQ(chaos.results.size(), baseline.results.size());
    for (std::size_t i = 0; i < chaos.results.size(); ++i) {
      EXPECT_TRUE(chaos.results[i].completed) << plan.jobs[i].label;
      EXPECT_TRUE(
          same_bits(chaos.results[i].report, baseline.results[i].report))
          << plan.jobs[i].label;
    }
  }
  // Resume: whatever the faulted run managed to persist replays bit-exact;
  // everything else (failed writes, quarantined entries) recomputes to the
  // same bits.
  ResultCache cache(dir);
  const SweepOutcome resumed = run_sweep(plan, &cache);
  for (std::size_t i = 0; i < resumed.results.size(); ++i)
    EXPECT_TRUE(
        same_bits(resumed.results[i].report, baseline.results[i].report))
        << plan.jobs[i].label;
}

TEST(ChaosMetrics, RobustnessCountersObserveInjectionAndRetries) {
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  const fault::Scope faults({"sweep.task:error,nth=1,limit=1"});
  const SweepOutcome outcome = run_sweep(small_plan(), nullptr, telemetry);
  EXPECT_EQ(outcome.jobs_failed, 0u);
  // Every catalogue counter is exported, so the values carry the check.
  EXPECT_EQ(metrics.counter_value("fault.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("sweep.retries"), 1u);
  EXPECT_EQ(metrics.counter_value("sweep.job_failures"), 0u);
  EXPECT_EQ(metrics.counter_value("cache.corrupt_entries"), 0u);
}

}  // namespace
}  // namespace fmtree::batch
