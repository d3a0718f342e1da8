// serve::Session semantics: in-flight dedup (N identical concurrent requests
// cost one computation, and none joins a cancelled job), all-or-nothing
// admission control (R120), cache-hit resolution, the drain path that
// resolves every ticket, responses that report only their own stop reason
// and warnings, admission reads that run outside the session lock, and
// refusals that carry those reads' warnings.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../batch/report_bits.hpp"
#include "fleet/corridor.hpp"
#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "smc/kpi.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::serve {
namespace {

using batch_test::same_bits;

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

Request sweep_request(std::uint64_t trajectories = 400) {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 5.0;
  r.settings.trajectories = trajectories;
  r.settings.seed = 3;
  r.frequencies = {0, 2};
  r.has_policy = true;
  return r;
}

Request single_policy(double frequency) {
  Request r = sweep_request();
  r.frequencies = {frequency};
  return r;
}

struct Harness {
  obs::MetricsRegistry metrics;
  std::unique_ptr<Session> session;

  explicit Harness(std::size_t queue_limit = 64, unsigned threads = 2,
                   double stall_timeout_s = 0.0, std::string cache_dir = {}) {
    SessionConfig config;
    config.threads = threads;
    config.queue_limit = queue_limit;
    config.stall_timeout_s = stall_timeout_s;
    config.cache_dir = std::move(cache_dir);
    config.telemetry.metrics = &metrics;
    session = std::make_unique<Session>(std::move(config));
  }

  /// Each job submitted is counted once, under one name per outcome: a
  /// cache hit (at admission or in its dispatch cycle), a cache miss of its
  /// cycle, or an attach to an identical job. Jobs cancelled or drained
  /// while still queued are in none of them.
  std::uint64_t accounted_jobs() const {
    return metrics.counter_value("batch.cache.hits") +
           metrics.counter_value("batch.cache.misses") +
           metrics.counter_value("serve.dedup_hits");
  }
};

/// The first trajectory chunk the pool claims parks its worker for 1 s; a
/// session with a 0.25 s watchdog stops that dispatch cycle as Stalled.
const std::vector<std::string> kStallFirstChunk = {
    "sweep.task:stall=1000,nth=1,limit=1"};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  return dir;
}

/// A disk cache holding the result of `request` alone, computed by a
/// session that is gone by the time this returns.
std::string warm_cache(const std::string& name, const Request& request) {
  const std::string dir = fresh_dir(name);
  Harness warm(64, 2, 0.0, dir);
  EXPECT_TRUE(warm.session->submit(request).take().all_done());
  return dir;
}

/// Flips one bit in the middle of every entry of a disk cache.
void corrupt_entries(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff middle = static_cast<std::streamoff>(f.tellg()) / 2;
    char c = 0;
    f.seekg(middle);
    f.get(c);
    f.seekp(middle);
    f.put(static_cast<char>(c ^ 0x01));
  }
}

// The PR's headline acceptance criterion: two concurrent identical requests
// cost exactly one computation per job and both callers receive bit-equal
// reports. Whichever way the race resolves — the second submit attaches to
// the in-flight job (dedup) or, if the first already finished, hits the
// cache — batch.jobs_simulated must count each distinct job exactly once.
TEST(ServeSession, ConcurrentIdenticalRequestsComputeOnce) {
  Harness h;
  Ticket first = h.session->submit(sweep_request(20000));
  Ticket second = h.session->submit(sweep_request(20000));
  const Response a = first.take();
  const Response b = second.take();
  EXPECT_TRUE(a.all_done());
  EXPECT_TRUE(b.all_done());
  ASSERT_EQ(a.jobs.size(), 2u);
  ASSERT_EQ(b.jobs.size(), 2u);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].label, b.jobs[i].label);
    EXPECT_TRUE(same_bits(a.jobs[i].report, b.jobs[i].report)) << i;
  }
  EXPECT_EQ(h.metrics.counter_value("batch.jobs_simulated"), 2u);
  EXPECT_EQ(h.metrics.counter_value("serve.requests"), 2u);
  EXPECT_EQ(h.metrics.counter_value("serve.dedup_hits") +
                h.metrics.counter_value("batch.cache.hits"),
            2u);
  EXPECT_EQ(h.accounted_jobs(), 4u);
}

TEST(ServeSession, DedupInsideOneRequestCostsOneSlotAndOneComputation) {
  Harness h;
  Request r = sweep_request();
  r.frequencies = {2, 2, 2};  // three identical policy points
  Ticket ticket = h.session->submit(r);
  EXPECT_EQ(ticket.jobs(), 3u);
  const Response response = ticket.take();
  EXPECT_TRUE(response.all_done());
  EXPECT_TRUE(same_bits(response.jobs[0].report, response.jobs[2].report));
  EXPECT_EQ(h.metrics.counter_value("batch.jobs_simulated"), 1u);
  EXPECT_EQ(h.metrics.counter_value("serve.jobs"), 1u);
  EXPECT_EQ(h.metrics.counter_value("serve.dedup_hits"), 2u);
  EXPECT_EQ(h.accounted_jobs(), 3u);
}

TEST(ServeSession, RepeatedRequestResolvesFromTheCacheWithoutSimulation) {
  Harness h;
  (void)h.session->submit(sweep_request()).take();
  const std::uint64_t simulated = h.metrics.counter_value("batch.jobs_simulated");
  const Response again = h.session->submit(sweep_request()).take();
  EXPECT_TRUE(again.all_done());
  for (const batch::JobResult& j : again.jobs) EXPECT_TRUE(j.cache_hit);
  EXPECT_EQ(h.metrics.counter_value("batch.jobs_simulated"), simulated);
  EXPECT_GE(h.metrics.counter_value("batch.cache.hits"), 2u);
  EXPECT_EQ(h.accounted_jobs(), 4u);
}

// A hit answered at admission counts as a job, as run_sweep counts one:
// batch.jobs = batch.cache.hits + batch.cache.misses.
TEST(ServeSession, AnAdmissionHitCountsAsAJob) {
  Harness h;
  Request r = sweep_request();
  r.frequencies = {0, 2, 4};
  EXPECT_TRUE(h.session->submit(r).take().all_done());
  const Response warm = h.session->submit(r).take();
  for (const batch::JobResult& j : warm.jobs) EXPECT_TRUE(j.cache_hit);
  EXPECT_EQ(h.metrics.counter_value("batch.jobs"), 6u);
  EXPECT_EQ(h.metrics.counter_value("batch.jobs"),
            h.metrics.counter_value("batch.cache.hits") +
                h.metrics.counter_value("batch.cache.misses"));
}

// One submitted job is smc::analyze bit for bit, and its repeat is a cache
// hit with the same bits.
TEST(ServeSession, ASubmittedJobMatchesAnalyzeBitExactly) {
  smc::AnalysisSettings settings;
  settings.horizon = 8.0;
  settings.trajectories = 3000;
  settings.seed = 11;
  settings.threads = 2;
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const smc::KpiReport reference = smc::analyze(model, settings);
  Harness h;
  const auto submit = [&] {
    std::vector<batch::SweepJob> jobs;
    jobs.push_back({"analysis", model, settings, nullptr});
    return h.session->submit_jobs(std::move(jobs)).take();
  };
  const Response first = submit();
  ASSERT_EQ(first.jobs.size(), 1u);
  EXPECT_FALSE(first.jobs[0].cache_hit);
  EXPECT_TRUE(same_bits(first.jobs[0].report, reference));
  const Response again = submit();
  ASSERT_EQ(again.jobs.size(), 1u);
  EXPECT_TRUE(again.jobs[0].cache_hit);
  EXPECT_TRUE(same_bits(again.jobs[0].report, reference));
}

TEST(ServeSession, AdmissionRejectsWholeRequestsBeyondTheQueueLimit) {
  Harness h(/*queue_limit=*/1);
  // Two genuinely new jobs against one slot: rejected whole, nothing queued.
  try {
    (void)h.session->submit(sweep_request());
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.code(), "R120");
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics().front().code, "R120");
  }
  EXPECT_EQ(h.metrics.counter_value("serve.rejected"), 1u);
  EXPECT_EQ(h.metrics.counter_value("serve.jobs"), 0u);

  // All-or-nothing means the rejection leaked no slots: a request that fits
  // the limit is admitted and completes normally afterwards.
  Request small = sweep_request();
  small.frequencies = {2};
  const Response response = h.session->submit(small).take();
  EXPECT_TRUE(response.all_done());
}

TEST(ServeSession, DrainResolvesPendingTicketsAsInterrupted) {
  Harness h;
  // Far more work than the drain allows to finish.
  Ticket ticket = h.session->submit(sweep_request(50'000'000));
  h.session->drain();
  EXPECT_TRUE(ticket.wait_for(0.0));  // already resolved
  const Response response = ticket.take();
  ASSERT_EQ(response.jobs.size(), 2u);
  for (const batch::JobResult& j : response.jobs)
    EXPECT_TRUE(j.state() == batch::JobState::Interrupted || j.completed);
  EXPECT_GT(response.count(batch::JobState::Interrupted), 0u);
  EXPECT_EQ(response.stop_reason, smc::StopReason::Interrupted);
  // A drained session accepts nothing new (R122, not a hang).
  try {
    (void)h.session->submit(sweep_request());
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R122");
  }
}

TEST(ServeSession, LastWatcherCancelAbandonsTheJob) {
  Harness h;
  Ticket ticket = h.session->submit(sweep_request(50'000'000));
  ticket.cancel();
  // The per-job control fires: a still-pending job resolves immediately, a
  // claimed one is abandoned at the next trajectory boundary. Either way the
  // dispatcher must come back for new work instead of grinding through the
  // orphaned 50M-trajectory plan.
  const Response response = h.session->submit(sweep_request(400)).take();
  EXPECT_TRUE(response.all_done());
}

// A running job whose last watcher left takes no newcomer: an identical
// request submitted while it winds down runs as a new job and completes,
// where attaching would hand it the cancelled result.
TEST(ServeSession, ANewRequestDoesNotJoinACancelledJob) {
  const fault::Scope faults(kStallFirstChunk);
  Harness h;
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  Ticket first = h.session->submit(single_policy(2));
  // Cancel only once the job is running (its first chunk is stalled).
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  first.cancel();
  const Response again = h.session->submit(single_policy(2)).take();
  ASSERT_EQ(again.jobs.size(), 1u);
  EXPECT_EQ(again.jobs[0].state(), batch::JobState::Done);
  EXPECT_EQ(h.metrics.counter_value("serve.dedup_hits"), 0u);
}

// A stop and its diagnostic belong to the dispatch cycle that hit them.
// Request B runs in a later, clean cycle than the stalled request A, so B
// reports no stop reason and no warning even when it is taken first.
TEST(ServeSession, EachResponseCarriesOnlyItsOwnStopReasonAndWarnings) {
  const fault::Scope faults(kStallFirstChunk);
  Harness h(64, 2, /*stall_timeout_s=*/0.25);
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  Ticket a = h.session->submit(single_policy(2));
  // Submit B only once A's cycle is running (its first chunk is stalled),
  // so B waits for the next cycle.
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Ticket b = h.session->submit(single_policy(0));

  const Response rb = b.take();
  EXPECT_TRUE(rb.all_done());
  EXPECT_EQ(rb.stop_reason, smc::StopReason::None);
  EXPECT_TRUE(rb.warnings.empty());

  const Response ra = a.take();
  ASSERT_EQ(ra.jobs.size(), 1u);
  EXPECT_EQ(ra.jobs[0].state(), batch::JobState::Interrupted);
  EXPECT_EQ(ra.stop_reason, smc::StopReason::Stalled);
  ASSERT_EQ(ra.warnings.size(), 1u);
  EXPECT_EQ(ra.warnings[0].code, "B102");
}

// A stop ends with its cycle: a later request on the same session that
// completes every job reports no stop reason.
TEST(ServeSession, ALaterRequestDoesNotInheritAnEarlierStop) {
  const fault::Scope faults(kStallFirstChunk);
  Harness h(64, 2, /*stall_timeout_s=*/0.25);
  const Response stalled = h.session->submit(single_policy(2)).take();
  EXPECT_EQ(stalled.stop_reason, smc::StopReason::Stalled);

  const Response later = h.session->submit(single_policy(0)).take();
  EXPECT_TRUE(later.all_done());
  EXPECT_EQ(later.stop_reason, smc::StopReason::None);
  EXPECT_TRUE(later.warnings.empty());
}

// A corrupt entry found while admitting request B is B's to report. B is
// admitted while A's dispatch cycle is stalled, so a C101 left on a list the
// cache shares would reach A's response when A's cycle ends.
TEST(ServeSession, AnAdmissionC101GoesToTheRequestThatReadTheEntry) {
  const std::string dir = warm_cache("fmtree_session_admission_c101", single_policy(0));
  corrupt_entries(dir);
  const fault::Scope faults(kStallFirstChunk);
  Harness h(64, 2, /*stall_timeout_s=*/0.25, dir);
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  Ticket a = h.session->submit(single_policy(2));
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Ticket b = h.session->submit(single_policy(0));

  const Response rb = b.take();
  EXPECT_TRUE(rb.all_done());
  EXPECT_EQ(rb.stop_reason, smc::StopReason::None);
  ASSERT_EQ(rb.warnings.size(), 1u);
  EXPECT_EQ(rb.warnings[0].code, "C101");

  const Response ra = a.take();
  EXPECT_EQ(ra.stop_reason, smc::StopReason::Stalled);
  ASSERT_EQ(ra.warnings.size(), 1u);
  EXPECT_EQ(ra.warnings[0].code, "B102");
  EXPECT_EQ(h.metrics.counter_value("cache.corrupt_entries"), 1u);
}

// A request refused after its admission reads carries their C101s in its
// error, after the R120: it read the entry, so no other response reports it.
TEST(ServeSession, ARefusedRequestCarriesTheC101sOfItsAdmissionReads) {
  const std::string dir = warm_cache("fmtree_session_refused_c101", single_policy(0));
  corrupt_entries(dir);
  Harness h(/*queue_limit=*/1, 2, 0.0, dir);
  // Two new jobs, one of them the corrupt entry's, against one slot.
  try {
    (void)h.session->submit(sweep_request());
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    ASSERT_EQ(e.diagnostics().size(), 2u);
    EXPECT_EQ(e.diagnostics()[0].code, "R120");
    EXPECT_EQ(e.diagnostics()[1].code, "C101");
  }
  EXPECT_EQ(h.metrics.counter_value("serve.rejected"), 1u);
  EXPECT_EQ(h.metrics.counter_value("cache.corrupt_entries"), 1u);
}

// A session that starts draining while a request's admission read is parked
// refuses that request with an R122 carrying its C101; a request submitted
// once the session is draining is refused before it reads the cache.
TEST(ServeSession, ADrainingSessionRefusesWithTheC101sItRead) {
  const std::string dir = warm_cache("fmtree_session_draining_c101", sweep_request());
  corrupt_entries(dir);
  Harness h(64, 2, 0.0, dir);
  const fault::Scope faults({"cache.read:stall=300,nth=1"});
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  std::vector<Diagnostic> refused;
  std::thread parked([&] {
    try {
      (void)h.session->submit(single_policy(0));
    } catch (const RequestError& e) {
      refused = e.diagnostics();
    }
  });
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  h.session->drain();
  parked.join();
  ASSERT_EQ(refused.size(), 2u);
  EXPECT_EQ(refused[0].code, "R122");
  EXPECT_EQ(refused[1].code, "C101");

  try {
    (void)h.session->submit(single_policy(2));
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R122");
    EXPECT_EQ(e.diagnostics().size(), 1u);
  }
  // The second request's corrupt entry was never read.
  EXPECT_EQ(h.session->cache().stats().corrupt_entries, 1u);
  EXPECT_EQ(h.metrics.counter_value("cache.corrupt_entries"), 1u);
}

// Admission reads the cache before it takes the session lock: while one
// request's disk read is parked ("cache.read" stalls 400 ms), a second
// request is admitted at once.
TEST(ServeSession, AdmissionDoesNotWaitOnAnotherRequestsDiskRead) {
  const std::string dir = warm_cache("fmtree_session_parked_read", single_policy(2));
  Harness h(64, 2, 0.0, dir);
  const fault::Scope faults({"cache.read:stall=400,nth=1"});
  const std::uint64_t fired = fault::FaultRegistry::instance().fires();
  std::optional<Ticket> a;
  std::thread first([&] { a.emplace(h.session->submit(single_policy(2))); });
  while (fault::FaultRegistry::instance().fires() == fired)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto t0 = std::chrono::steady_clock::now();
  Ticket b = h.session->submit(single_policy(0));
  const double admitted_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  first.join();
  EXPECT_LT(admitted_ms, 100.0);
  const Response ra = a->take();
  ASSERT_EQ(ra.jobs.size(), 1u);
  EXPECT_TRUE(ra.jobs[0].cache_hit);
  EXPECT_TRUE(b.take().all_done());
}

// A warm 1000-joint corridor submitted to a width-4 session resolves on the
// resolver's workers to the very results and hit counts of
// fleet::analyze_fleet over the same cache directory.
TEST(ServeSession, WarmCorridorResolvesLikeAnalyzeFleet) {
  constexpr std::size_t kJoints = 1000;
  fleet::CorridorSpec spec;
  spec.joints = kJoints;
  spec.seed = 9;
  spec.jitter = 0.1;
  spec.coupling = 0.2;
  const fleet::Corridor corridor = fleet::generate_corridor(fmt::parse_fmt(kModel), spec);
  fleet::FleetOptions options;
  options.settings.horizon = 1.0;
  options.settings.trajectories = 4;
  options.settings.seed = 5;
  options.threads = 4;
  const std::string dir = fresh_dir("fmtree_session_warm_corridor");
  {
    batch::ResultCache cold(dir);
    ASSERT_EQ(fleet::analyze_fleet(corridor, options, &cold).cache_misses, kJoints);
  }
  batch::ResultCache warm(dir);
  const fleet::FleetOutcome expected = fleet::analyze_fleet(corridor, options, &warm);
  ASSERT_EQ(expected.cache_hits, kJoints);

  Harness h(kJoints, 4, 0.0, dir);
  const Response response =
      h.session->submit_jobs(fleet::fleet_plan(corridor, options).jobs).take();
  ASSERT_EQ(response.jobs.size(), kJoints);
  EXPECT_TRUE(response.warnings.empty());
  const fleet::FleetOutcome served =
      fleet::fleet_outcome(corridor, response.jobs, response.warnings, options);
  EXPECT_EQ(served.cache_hits, expected.cache_hits);
  EXPECT_EQ(served.cache_misses, 0u);
  EXPECT_EQ(h.metrics.counter_value("batch.cache.hits"), kJoints);
  EXPECT_EQ(h.metrics.counter_value("batch.cache.misses"), 0u);
  for (std::size_t i = 0; i < kJoints; ++i) {
    EXPECT_EQ(response.jobs[i].label, corridor.joints[i].name);
    EXPECT_TRUE(same_bits(served.joints[i].report, expected.joints[i].report)) << i;
  }
  EXPECT_TRUE(same_bits(served.kpis.cost_per_year, expected.kpis.cost_per_year));
  EXPECT_TRUE(same_bits(served.kpis.failures_per_year, expected.kpis.failures_per_year));
}

TEST(ServeSession, NegativeDiscountRateIsRejectedWithR112) {
  // Refused at admission rather than failing later as a job.
  Harness h(64, 4);
  Request r = sweep_request();
  r.settings.discount_rate = -0.1;
  std::vector<batch::SweepJob> jobs = prepare(r, ".").jobs;
  try {
    (void)h.session->submit_jobs(std::move(jobs));
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R112");
  }
  EXPECT_EQ(h.metrics.counter_value("serve.jobs"), 0u);
}

TEST(ServeSession, InfiniteHorizonIsRefusedWithR112AndTheSessionDrains) {
  // A trajectory with an infinite horizon never ends, and a drain stops a
  // job only between trajectories: admission refuses the request instead.
  Harness h;
  Request r = sweep_request();
  r.settings.horizon = std::numeric_limits<double>::infinity();
  const std::string text = encode_request(r);
  ASSERT_NE(text.find("\"horizon\": \"inf\""), std::string::npos) << text;
  std::string code = "(admitted)";
  try {
    (void)h.session->submit(parse_request(text));
  } catch (const RequestError& e) {
    code = e.code();
  }
  EXPECT_EQ(code, "R112");
  const auto t0 = std::chrono::steady_clock::now();
  h.session->drain();
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 1.0);
}

TEST(ServeSession, InvalidSettingsAreRejectedWithR112) {
  Harness h;
  Request r = sweep_request();
  r.settings.horizon = -1;  // built directly, so no parse_request guard ran
  try {
    (void)h.session->submit(r);
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R112");
  }
}

}  // namespace
}  // namespace fmtree::serve
