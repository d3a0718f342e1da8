#include "batch/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "report_bits.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"
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

SweepPlan small_plan(unsigned threads = 0, std::uint64_t jobs = 3) {
  SweepPlan plan;
  plan.threads = threads;
  for (std::uint64_t seed = 1; seed <= jobs; ++seed) {
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

/// The names of the regular files directly in `dir`.
std::vector<std::string> file_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
  return names;
}

// The load-bearing invariant: a pooled sweep produces, for every job, the
// exact bits smc::analyze produces — at any thread count.
TEST(SweepEngine, BitIdenticalToAnalyzeAtAnyThreadAndChunkCount) {
  const SweepPlan plan = small_plan();
  for (unsigned threads : {1u, 2u, 7u}) {
    const SweepOutcome pooled = run_sweep(small_plan(threads));
    ASSERT_EQ(pooled.results.size(), 3u);
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
      const smc::KpiReport direct =
          smc::analyze(plan.jobs[i].model, plan.jobs[i].settings);
      EXPECT_TRUE(pooled.results[i].completed);
      EXPECT_TRUE(same_bits(pooled.results[i].report, direct)) << threads;
    }
    EXPECT_EQ(pooled.trajectories_simulated, 900u);
    EXPECT_FALSE(pooled.truncated);
  }
}

TEST(SweepEngine, RejectsBadPlansAndSettings) {
  SweepPlan bad_settings = small_plan();
  bad_settings.jobs[1].settings.horizon = -1.0;
  EXPECT_THROW(run_sweep(bad_settings), DomainError);
  SweepPlan bad_discount = small_plan();
  bad_discount.jobs[2].settings.discount_rate = -0.1;
  EXPECT_THROW(run_sweep(bad_discount), DomainError);
}

TEST(SweepEngine, AdaptiveJobsRunPooledAndStayBitIdentical) {
  SweepPlan plan;
  SweepJob job;
  job.label = "adaptive";
  job.model = fmt::parse_fmt(kModel);
  job.settings = small_settings(2000);
  job.settings.target_relative_error = 0.2;
  job.settings.batch = 100;
  plan.jobs.push_back(std::move(job));
  const smc::KpiReport direct =
      smc::analyze(plan.jobs[0].model, plan.jobs[0].settings);
  ASSERT_LT(direct.trajectories, 2000u);  // the target stops it early

  for (unsigned threads : {1u, 2u, 7u}) {
    plan.threads = threads;
    obs::MetricsRegistry metrics;
    ResultCache cache;
    const SweepOutcome cold = run_sweep(plan, &cache, {&metrics, nullptr, nullptr});
    ASSERT_TRUE(cold.results[0].completed);
    EXPECT_TRUE(same_bits(cold.results[0].report, direct)) << threads;
    // Pooled, not handed to smc::analyze: the pool folded exactly the
    // report's trajectories and smc.* saw none.
    EXPECT_EQ(metrics.counter_value("batch.trajectories"), direct.trajectories);
    EXPECT_GT(metrics.counter_value("batch.tasks"), 0u);
    EXPECT_EQ(metrics.counter_value("smc.trajectories"), 0u);

    const SweepOutcome warm = run_sweep(plan, &cache);
    EXPECT_EQ(warm.cache_hits, 1u);
    EXPECT_TRUE(warm.results[0].cache_hit);
    EXPECT_TRUE(same_bits(warm.results[0].report, direct));
  }
}

// Jobs of one plan that share a cache key run once: a later one takes the
// first one's outcome under its own label, and counts as a job and a miss
// but not as a simulated job.
TEST(SweepEngine, JobsThatShareAKeyRunOnce) {
  SweepPlan plan = small_plan(2);
  plan.jobs[1].settings = plan.jobs[0].settings;
  plan.jobs[1].label = "twin";
  plan.jobs.resize(2);
  obs::MetricsRegistry metrics;
  const SweepOutcome outcome = run_sweep(plan, nullptr, {&metrics, nullptr, nullptr});
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.results[0].label, "seed-1");
  EXPECT_EQ(outcome.results[1].label, "twin");
  const smc::KpiReport direct = smc::analyze(plan.jobs[0].model, plan.jobs[0].settings);
  for (const JobResult& r : outcome.results) {
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_TRUE(same_bits(r.report, direct)) << r.label;
  }
  EXPECT_EQ(outcome.trajectories_simulated, 300u);
  EXPECT_EQ(metrics.counter_value("batch.trajectories"), 300u);
  EXPECT_EQ(metrics.counter_value("batch.jobs"), 2u);
  EXPECT_EQ(metrics.counter_value("batch.cache.misses"), 2u);
  EXPECT_EQ(metrics.counter_value("batch.jobs_simulated"), 1u);

  // A permanent failure is the twin's too.
  const fault::Scope faults({"sweep.task:error,nth=1"});
  plan.max_retries = 0;
  const SweepOutcome failed = run_sweep(plan);
  for (const JobResult& r : failed.results) {
    EXPECT_TRUE(r.failed) << r.label;
    EXPECT_EQ(r.failure.kind, "injected") << r.label;
  }
  EXPECT_EQ(failed.jobs_failed, 2u);
}

// batch.tasks counts the chunks that hand their job's fold a trajectory.
// Workers claim chunks past an adaptive stop before they see it, and how
// many depends on the width; the count does not.
TEST(SweepEngine, TasksCountFoldedChunksAtAnyWidth) {
  SweepPlan plan;
  SweepJob& job = plan.jobs.emplace_back();
  job.label = "adaptive";
  job.model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                      eijoint::current_policy());
  job.settings.horizon = 20.0;
  job.settings.trajectories = std::uint64_t{1} << 20;
  job.settings.target_relative_error = 0.2;
  std::vector<std::uint64_t> tasks;
  for (unsigned threads : {1u, 4u}) {
    plan.threads = threads;
    obs::MetricsRegistry metrics;
    const SweepOutcome outcome = run_sweep(plan, nullptr, {&metrics, nullptr, nullptr});
    ASSERT_TRUE(outcome.results[0].completed);
    EXPECT_LT(outcome.results[0].report.trajectories, job.settings.trajectories);
    tasks.push_back(metrics.counter_value("batch.tasks"));
  }
  EXPECT_GT(tasks[0], 0u);
  EXPECT_EQ(tasks[0], tasks[1]);
}

TEST(SweepEngine, StartsJobsInPlanOrder) {
  // The pool claims chunks in plan order, so a one-thread sweep opens each
  // job's first span in plan order (and a served dispatch cycle, sorted
  // highest priority first, serves its most urgent job first).
  SweepPlan plan;
  plan.threads = 1;
  for (int j = 0; j < 5; ++j) {
    SweepJob job;
    job.label = "job" + std::to_string(j);
    job.model = fmt::parse_fmt(kModel);
    job.settings = small_settings(500);
    job.settings.seed = static_cast<std::uint64_t>(j) + 1;
    plan.jobs.push_back(std::move(job));
  }
  obs::Tracer tracer;
  const SweepOutcome outcome = run_sweep(plan, nullptr, {nullptr, &tracer, nullptr});
  ASSERT_EQ(outcome.cache_misses, 5u);
  std::vector<std::string> first_seen;
  for (const obs::SpanRecord& span : tracer.records()) {
    if (span.name.rfind("job:", 0) != 0) continue;
    if (std::find(first_seen.begin(), first_seen.end(), span.name) == first_seen.end())
      first_seen.push_back(span.name);
  }
  EXPECT_EQ(first_seen, (std::vector<std::string>{"job:job0", "job:job1", "job:job2",
                                                   "job:job3", "job:job4"}));
}

// Workers write the entries of the jobs they settle while the pool runs;
// every write has finished when run_sweep returns, at any width.
TEST(SweepEngine, ColdSweepWritesEveryEntryBeforeItReturns) {
  for (unsigned threads : {1u, 4u}) {
    const std::string dir = fresh_dir("fmtree_sweep_cold_" + std::to_string(threads));
    const SweepPlan plan = small_plan(threads, 12);
    std::vector<Fingerprint> hashes;
    {
      ResultCache cache(dir);
      const SweepOutcome cold = run_sweep(plan, &cache);
      ASSERT_EQ(cold.cache_misses, 12u);
      for (const JobResult& r : cold.results) {
        ASSERT_TRUE(r.completed) << r.label;
        hashes.push_back(report_content_hash(r.report));
      }
      EXPECT_EQ(cache.stats().disk_writes, 12u) << threads;
      EXPECT_EQ(cache.stats().disk_failures, 0u) << threads;
    }
    const std::vector<std::string> names = file_names(dir);
    EXPECT_EQ(names.size(), 12u) << threads;
    for (const std::string& name : names)
      EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;

    ResultCache fresh(dir);
    const SweepOutcome warm = run_sweep(plan, &fresh);
    EXPECT_EQ(warm.cache_hits, 12u) << threads;
    EXPECT_EQ(fresh.stats().disk_hits, 12u) << threads;
    for (std::size_t i = 0; i < warm.results.size(); ++i)
      EXPECT_EQ(report_content_hash(warm.results[i].report), hashes[i]) << i;
  }
}

// One thread writes at a time: with each disk write stalled 25 ms, the
// eight entries of a four-worker sweep take at least 8 x 25 ms to write,
// and the sweep returns only after the last one.
TEST(SweepEngine, CacheWritesNeverOverlap) {
  const std::string dir = fresh_dir("fmtree_sweep_one_writer");
  ResultCache cache(dir);
  const fault::Scope faults({"cache.write:stall=25"});
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const SweepOutcome outcome = run_sweep(small_plan(4, 8), &cache);
  const auto elapsed = clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(8 * 25));
  for (const JobResult& r : outcome.results) EXPECT_TRUE(r.completed) << r.label;
  EXPECT_EQ(cache.stats().disk_writes, 8u);
}

// A report that throws, here from a cost that overflows to +inf, fails its
// job on the worker that settles it: a permanent domain failure with no
// retry and no cache entry, while every other job completes and is written.
TEST(SweepEngine, AJobWhoseReportThrowsFailsAloneWithoutRetries) {
  const std::string dir = fresh_dir("fmtree_sweep_report_throws");
  SweepPlan plan = small_plan(4, 4);
  plan.jobs[2].label = "overflow";
  plan.jobs[2].model = fmt::parse_fmt(R"(
    toplevel T;
    T or A B;
    A ebe phases=3 mean=6 threshold=2 repair_cost=100;
    B be exp(0.5);
    inspection I period=0.25 cost=20 targets A;
    corrective cost=1e308 delay=0.02;
  )");
  obs::MetricsRegistry metrics;
  ResultCache cache(dir);
  const SweepOutcome outcome = run_sweep(plan, &cache, {&metrics, nullptr, nullptr});
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    const JobResult& r = outcome.results[i];
    const bool on_disk = std::filesystem::exists(dir + "/" + r.key.id() + ".json");
    if (i == 2) {
      EXPECT_TRUE(r.failed);
      EXPECT_FALSE(r.completed);
      EXPECT_EQ(r.failure.kind, "domain");
      EXPECT_EQ(r.retries, 0u);
      EXPECT_FALSE(on_disk);
    } else {
      EXPECT_TRUE(r.completed) << r.label;
      EXPECT_TRUE(on_disk) << r.label;
    }
  }
  EXPECT_EQ(outcome.jobs_failed, 1u);
  EXPECT_EQ(cache.stats().disk_writes, 3u);
  EXPECT_EQ(metrics.counter_value("sweep.job_failures"), 1u);
  EXPECT_EQ(metrics.counter_value("sweep.retries"), 0u);
}

// Each simulated job's entry is written under a "write:<label>" span on the
// thread that writes it; hits and twins write nothing.
TEST(SweepEngine, TracedColdSweepSpansOneWritePerSimulatedJob) {
  ResultCache cache;
  SweepPlan plan = small_plan(2, 3);
  SweepPlan warm_up = plan;
  warm_up.jobs.resize(1);
  (void)run_sweep(warm_up, &cache);
  plan.jobs.push_back(plan.jobs[1]);
  plan.jobs.back().label = "twin";
  obs::Tracer tracer;
  const SweepOutcome outcome = run_sweep(plan, &cache, {nullptr, &tracer, nullptr});
  ASSERT_EQ(outcome.cache_hits, 1u);
  std::vector<std::string> writes;
  for (const obs::SpanRecord& span : tracer.records())
    if (span.name.rfind("write:", 0) == 0) writes.push_back(span.name);
  std::sort(writes.begin(), writes.end());
  EXPECT_EQ(writes, (std::vector<std::string>{"write:seed-2", "write:seed-3"}));
}

TEST(SweepEngine, HugeJobStopsAtBudgetInBoundedMemory) {
  // A 2^40-trajectory job under a trajectory budget: nothing may be sized by
  // the request, so the plan must stop and report the job incomplete.
  SweepPlan plan = small_plan(2);
  plan.jobs.resize(1);
  plan.jobs[0].settings.trajectories = std::uint64_t{1} << 40;
  smc::RunControl control;
  control.set_trajectory_budget(20000);
  plan.control = &control;
  ResultCache cache;
  const SweepOutcome outcome = run_sweep(plan, &cache);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_EQ(outcome.stop_reason, smc::StopReason::BudgetExhausted);
  EXPECT_FALSE(outcome.results[0].completed);
  EXPECT_GE(outcome.trajectories_simulated, 20000u);
  EXPECT_LT(outcome.trajectories_simulated, 40000u);
  const SweepJob& job = plan.jobs[0];
  EXPECT_FALSE(cache.get(kpi_cache_key(job.model, job.settings)).has_value());
}

TEST(SweepEngine, StoppedPlanReturnsIncompleteJobsAndCachesNothing) {
  SweepPlan plan = small_plan();
  smc::RunControl control;
  control.request_stop();  // stop before the first trajectory boundary
  plan.control = &control;
  ResultCache cache;
  const SweepOutcome outcome = run_sweep(plan, &cache);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_EQ(outcome.stop_reason, smc::StopReason::Interrupted);
  for (const JobResult& r : outcome.results) EXPECT_FALSE(r.completed);
  for (const SweepJob& job : plan.jobs)
    EXPECT_FALSE(cache.get(kpi_cache_key(job.model, job.settings)).has_value());
}

// Acceptance criterion of the batch subsystem: replaying the EI-joint cost
// curve against a warm cache is at least 5x faster than computing it, serves
// every job from the cache, and returns bit-identical reports.
TEST(SweepEngine, EiJointCostCurveWarmReplayIsFastAndBitIdentical) {
  const SweepPlan plan = eijoint::cost_curve_plan(
      eijoint::EiJointParameters::defaults(), small_settings(400));
  ASSERT_EQ(plan.jobs.size(), eijoint::cost_curve_frequencies().size());

  using clock = std::chrono::steady_clock;
  ResultCache cache;
  const auto cold_start = clock::now();
  const SweepOutcome cold = run_sweep(plan, &cache);
  const double cold_s =
      std::chrono::duration<double>(clock::now() - cold_start).count();
  EXPECT_EQ(cold.cache_misses, plan.jobs.size());

  const auto warm_start = clock::now();
  const SweepOutcome warm = run_sweep(plan, &cache);
  const double warm_s =
      std::chrono::duration<double>(clock::now() - warm_start).count();

  EXPECT_EQ(warm.cache_hits, plan.jobs.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.trajectories_simulated, 0u);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_TRUE(warm.results[i].cache_hit);
    EXPECT_TRUE(same_bits(warm.results[i].report, cold.results[i].report));
  }
  EXPECT_GE(cold_s, 5.0 * warm_s)
      << "warm replay " << warm_s << "s vs cold " << cold_s << "s";
}

}  // namespace
}  // namespace fmtree::batch
