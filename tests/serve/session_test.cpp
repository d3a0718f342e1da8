// serve::Session semantics: in-flight dedup (N identical concurrent requests
// cost one computation), all-or-nothing admission control (R120), cache-hit
// resolution, and the drain path that resolves every ticket.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../batch/report_bits.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "smc/kpi.hpp"

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

struct Harness {
  obs::MetricsRegistry metrics;
  std::unique_ptr<Session> session;

  explicit Harness(std::size_t queue_limit = 64, unsigned threads = 2) {
    SessionConfig config;
    config.threads = threads;
    config.queue_limit = queue_limit;
    config.telemetry.metrics = &metrics;
    session = std::make_unique<Session>(std::move(config));
  }
};

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
                h.metrics.counter_value("serve.cache_hits"),
            2u);
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
}

TEST(ServeSession, RepeatedRequestResolvesFromTheCacheWithoutSimulation) {
  Harness h;
  (void)h.session->submit(sweep_request()).take();
  const std::uint64_t simulated = h.metrics.counter_value("batch.jobs_simulated");
  const Response again = h.session->submit(sweep_request()).take();
  EXPECT_TRUE(again.all_done());
  for (const JobOutcome& j : again.jobs) EXPECT_TRUE(j.cache_hit);
  EXPECT_EQ(h.metrics.counter_value("batch.jobs_simulated"), simulated);
  EXPECT_GE(h.metrics.counter_value("serve.cache_hits"), 2u);
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
  EXPECT_TRUE(ticket.done());
  const Response response = ticket.take();
  ASSERT_EQ(response.jobs.size(), 2u);
  for (const JobOutcome& j : response.jobs)
    EXPECT_TRUE(j.state == JobState::Interrupted || j.state == JobState::Done);
  EXPECT_GT(response.count(JobState::Interrupted), 0u);
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
