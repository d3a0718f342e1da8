// The parallel cache resolver (batch::resolve_jobs) and the ResultCache it
// reads concurrently: a plan resolves to the same reports, counters and C101
// list at any width; a corrupt entry read by many threads at once is
// quarantined, counted and reported once; a quarantine move never overwrites
// an earlier one; and no lock is held across disk I/O, so a memory-tier read
// never waits on a parked disk write.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
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
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0.02;
)";

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  return dir;
}

/// Flips one bit in the middle of a published entry, the way bit rot would.
void corrupt_file(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const std::streamoff middle = static_cast<std::streamoff>(f.tellg()) / 2;
  char c = 0;
  f.seekg(middle);
  f.get(c);
  f.seekp(middle);
  f.put(static_cast<char>(c ^ 0x01));
}

std::string entry_path(const std::string& dir, const CacheKey& key) {
  return dir + "/" + key.id() + ".json";
}

/// The quarantined copies of `key`'s entry ("<id>.json.<tag>-<n>").
std::vector<std::filesystem::path> quarantined_copies(const ResultCache& cache,
                                                      const CacheKey& key) {
  std::vector<std::filesystem::path> copies;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache.quarantine_directory(), ec))
    if (entry.path().filename().string().rfind(key.id() + ".json.", 0) == 0)
      copies.push_back(entry.path());
  return copies;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ResolveJobs, WidthFollowsTheGrainAndTheThreadBudget) {
  EXPECT_EQ(resolve_width(4, 0), 1u);
  EXPECT_EQ(resolve_width(4, 1), 1u);
  EXPECT_EQ(resolve_width(4, 25), 1u);  // a served request stays inline
  EXPECT_EQ(resolve_width(4, 2 * kResolveGrain), 2u);
  EXPECT_EQ(resolve_width(4, 1000), 4u);  // a corridor uses every worker
  EXPECT_EQ(resolve_width(2, 1000), 2u);
  EXPECT_EQ(resolve_width(1, 1000), 1u);
  EXPECT_GE(resolve_width(0, 1000), 1u);  // 0 = hardware concurrency
}

// A 200-job plan over a warm disk cache with three corrupted entries and one
// job repeated resolves identically at widths 1, 2 and 4: the same report
// bits, hit and miss counters, corrupt-entry count and C101 list in plan
// order.
TEST(ResolveJobs, WarmPlanResolvesIdenticallyAtEveryWidth) {
  constexpr std::size_t kJobs = 200;
  constexpr std::size_t kRepeated = 150;  // a copy of job 20
  const std::vector<std::size_t> corrupted = {3, 77, 199};
  SweepPlan plan;
  for (std::size_t i = 0; i < kJobs; ++i) {
    SweepJob job;
    job.label = "job-" + std::to_string(i);
    job.model = fmt::parse_fmt(kModel);
    job.settings.horizon = 5.0;
    job.settings.trajectories = 64;
    job.settings.seed = i == kRepeated ? 21 : i + 1;
    plan.jobs.push_back(std::move(job));
  }

  const std::string warm_dir = fresh_dir("fmtree_resolve_warm");
  std::vector<smc::KpiReport> cold;
  {
    ResultCache cache(warm_dir);
    plan.threads = 4;
    const SweepOutcome outcome = run_sweep(plan, &cache);
    ASSERT_EQ(outcome.cache_misses, kJobs);
    for (const JobResult& r : outcome.results) cold.push_back(r.report);
  }

  for (const unsigned width : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    ASSERT_EQ(resolve_width(width, kJobs), width);
    const std::string dir = fresh_dir("fmtree_resolve_width_" + std::to_string(width));
    std::filesystem::copy(warm_dir, dir, std::filesystem::copy_options::recursive);
    std::vector<std::string> corrupted_ids;
    for (const std::size_t j : corrupted) {
      const CacheKey key = kpi_cache_key(plan.jobs[j].model, plan.jobs[j].settings);
      corrupt_file(entry_path(dir, key));
      corrupted_ids.push_back(key.id());
    }

    obs::MetricsRegistry metrics;
    obs::Telemetry telemetry;
    telemetry.metrics = &metrics;
    ResultCache cache(dir);
    plan.threads = width;
    const SweepOutcome outcome = run_sweep(plan, &cache, telemetry);
    ASSERT_EQ(outcome.results.size(), kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_TRUE(outcome.results[i].completed) << i;
      EXPECT_TRUE(same_bits(outcome.results[i].report, cold[i])) << i;
    }
    EXPECT_EQ(outcome.cache_hits, kJobs - corrupted.size());
    EXPECT_EQ(outcome.cache_misses, corrupted.size());
    EXPECT_EQ(metrics.counter_value("batch.cache.hits"), kJobs - corrupted.size());
    EXPECT_EQ(metrics.counter_value("batch.cache.misses"), corrupted.size());
    EXPECT_EQ(metrics.counter_value("cache.corrupt_entries"), corrupted.size());
    EXPECT_EQ(cache.stats().quarantined, corrupted.size());
    ASSERT_EQ(outcome.warnings.size(), corrupted.size());
    for (std::size_t k = 0; k < corrupted.size(); ++k) {
      EXPECT_EQ(outcome.warnings[k].code, "C101");
      EXPECT_NE(outcome.warnings[k].message.find(corrupted_ids[k]), std::string::npos)
          << outcome.warnings[k].message;
    }
  }
}

// Eight threads mix gets and puts over 64 keys; in every round all of them
// read one freshly corrupted entry at once. Each such entry is quarantined
// once, counted once and reported by exactly one C101. Every disk read is
// slowed by 20 ms after it has read the file ("cache.read" stalls), so all
// eight hold the corrupt bytes before the first of them moves the entry.
TEST(ResultCacheConcurrency, ACorruptEntryReadByManyThreadsIsQuarantinedOnce) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint64_t kRounds = 12;
  const auto key = [](std::uint64_t i) {
    return CacheKey{Fingerprint{0xfeed, i}, Fingerprint{0xbeef, 0x5eed}};
  };
  const auto corrupt_key = [&](std::uint64_t round) { return key(kKeys + round); };
  smc::KpiReport report;
  report.horizon = 5.0;
  report.trajectories = 100;
  report.reliability = {0.75, 0.7, 0.8, 0.95};
  report.failures_per_leaf = {0.1, 0.2};
  report.repairs_per_leaf = {1.0, 2.0};

  const std::string dir = fresh_dir("fmtree_cache_stress");
  {
    // Half of the mixed keys start on disk, so the mix also reads and
    // promotes disk entries while other threads put.
    ResultCache writer(dir);
    for (std::uint64_t i = 0; i < kKeys; i += 2) writer.put(key(i), report);
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      writer.put(corrupt_key(round), report);
      corrupt_file(entry_path(dir, corrupt_key(round)));
    }
  }

  ResultCache cache(dir);
  const fault::Scope faults({"cache.read:stall=20"});
  std::atomic<std::uint64_t> arrived{0};
  std::vector<std::vector<int>> c101s(kThreads, std::vector<int>(kRounds, 0));
  std::vector<int> hits_on_corrupt(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        // Everyone reads this round's corrupt entry at once.
        ++arrived;
        while (arrived < kThreads * (round + 1)) std::this_thread::yield();
        std::optional<Diagnostic> warning;
        if (cache.get(corrupt_key(round), &warning)) ++hits_on_corrupt[t];
        if (warning && warning->code == "C101") ++c101s[t][round];
        for (int op = 0; op < 40; ++op) {
          const CacheKey k = key(rng() % kKeys);
          if (rng() % 3 == 0) {
            cache.put(k, report);
          } else if (const auto hit = cache.get(k)) {
            EXPECT_TRUE(same_bits(*hit, report));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::uint64_t round = 0; round < kRounds; ++round) {
    int total = 0;
    for (unsigned t = 0; t < kThreads; ++t) total += c101s[t][round];
    EXPECT_EQ(total, 1) << "round " << round;
    EXPECT_EQ(quarantined_copies(cache, corrupt_key(round)).size(), 1u)
        << "round " << round;
  }
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(hits_on_corrupt[t], 0);
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.corrupt_entries, kRounds);
  EXPECT_EQ(st.quarantined, kRounds);
}

// Reader A reads a corrupt entry and is held up ("cache.read" stalls 300 ms)
// while reader B quarantines it and the job's fresh result is put again.
// A's rename then moves the fresh entry aside: a second C101 for the key and
// one more recomputation, but the corrupt copy B moved stays intact beside
// it, because every quarantine move has a name of its own.
TEST(ResultCacheConcurrency, AReaderHeldPastARecomputeKeepsTheFirstQuarantinedCopy) {
  const std::string dir = fresh_dir("fmtree_cache_held_reader");
  const CacheKey key{Fingerprint{5, 5}, Fingerprint{6, 6}};
  smc::KpiReport report;
  report.horizon = 5.0;
  report.trajectories = 10;
  {
    ResultCache writer(dir);
    writer.put(key, report);
  }
  corrupt_file(entry_path(dir, key));
  const std::string corrupt_bytes = read_file(entry_path(dir, key));

  ResultCache cache(dir);
  const fault::Scope faults({"cache.read:stall=300,nth=1"});
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  std::optional<Diagnostic> held_warning;
  std::thread held([&] { EXPECT_FALSE(cache.get(key, &held_warning).has_value()); });
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::optional<Diagnostic> warning;
  EXPECT_FALSE(cache.get(key, &warning).has_value());
  cache.put(key, report);
  held.join();

  ASSERT_TRUE(warning.has_value());
  ASSERT_TRUE(held_warning.has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 2u);
  EXPECT_EQ(cache.stats().quarantined, 2u);
  const std::vector<std::filesystem::path> copies = quarantined_copies(cache, key);
  ASSERT_EQ(copies.size(), 2u);
  int corrupt = 0;
  int fresh = 0;
  for (const std::filesystem::path& copy : copies) {
    const std::string text = read_file(copy);
    if (text == corrupt_bytes) ++corrupt;
    if (text == encode_report(key, report)) ++fresh;
  }
  EXPECT_EQ(corrupt, 1);
  EXPECT_EQ(fresh, 1);
  // The memory tier still holds the fresh result.
  const std::optional<smc::KpiReport> hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bits(*hit, report));
}

// A put parks in its disk write ("cache.write" stalls 400 ms); a memory-tier
// get of another key on another thread must not wait for it.
TEST(ResultCacheConcurrency, MemoryGetDoesNotWaitOnAParkedDiskWrite) {
  const std::string dir = fresh_dir("fmtree_cache_parked_write");
  ResultCache cache(dir);
  smc::KpiReport report;
  report.trajectories = 10;
  const CacheKey resident{Fingerprint{1, 1}, Fingerprint{2, 2}};
  const CacheKey written{Fingerprint{3, 3}, Fingerprint{4, 4}};
  cache.put(resident, report);

  const fault::Scope faults({"cache.write:stall=400,nth=1"});
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  std::thread writer([&] { cache.put(written, report); });
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto t0 = std::chrono::steady_clock::now();
  const bool hit = cache.get(resident).has_value();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  writer.join();
  EXPECT_TRUE(hit);
  EXPECT_LT(waited_ms, 100.0);
  EXPECT_EQ(cache.stats().disk_writes, 2u);
}

}  // namespace
}  // namespace fmtree::batch
