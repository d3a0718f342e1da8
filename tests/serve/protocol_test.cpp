// fmtree.response/v1 result events: every job state and every JobResult
// field survives encode_result -> decode_event, report bits included, and
// the decoded response re-encodes to the same line.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../batch/report_bits.hpp"
#include "batch/fingerprint.hpp"
#include "fmt/parser.hpp"
#include "serve/protocol.hpp"
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

void expect_same_job(const batch::JobResult& a, const batch::JobResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failure.kind, b.failure.kind);
  EXPECT_EQ(a.failure.message, b.failure.message);
  EXPECT_EQ(a.failure.transient, b.failure.transient);
  EXPECT_EQ(a.failure.attempts, b.failure.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_TRUE(same_bits(a.report, b.report));
}

TEST(ServeProtocol, ResultEventRoundTripsEveryJobState) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  smc::AnalysisSettings settings;
  settings.horizon = 5.0;
  settings.trajectories = 300;
  settings.seed = 11;
  settings.threads = 1;
  const batch::CacheKey key = batch::kpi_cache_key(model, settings);

  Response response;
  response.id = "all-states";
  response.stop_reason = smc::StopReason::Stalled;
  Diagnostic warning;
  warning.severity = Severity::Warning;
  warning.code = "B102";
  warning.message = "pool watchdog: no trajectory progress";
  warning.hint = "raise --stall-timeout";
  response.warnings.push_back(warning);

  batch::JobResult done;
  done.label = "2x-per-year";
  done.key = key;
  done.completed = true;
  done.retries = 1;
  done.report = smc::analyze(model, settings);

  batch::JobResult failed;
  failed.label = "no-inspection";
  failed.key = key;
  failed.failed = true;
  failed.failure.kind = "io";
  failed.failure.message = "cannot write \"entry\"\n(disk full)";
  failed.failure.transient = true;
  failed.failure.attempts = 3;
  failed.retries = 2;

  batch::JobResult cancelled;
  cancelled.label = "cancelled";
  cancelled.key = key;
  cancelled.cancelled = true;

  batch::JobResult interrupted;
  interrupted.label = "interrupted";
  interrupted.key = key;

  response.jobs = {done, failed, cancelled, interrupted};
  EXPECT_EQ(response.count(batch::JobState::Done), 1u);
  EXPECT_EQ(response.count(batch::JobState::Failed), 1u);
  EXPECT_EQ(response.count(batch::JobState::Cancelled), 1u);
  EXPECT_EQ(response.count(batch::JobState::Interrupted), 1u);

  const std::string line = encode_result(response);
  const Event event = decode_event(line);
  ASSERT_EQ(event.kind, EventKind::Result);
  EXPECT_EQ(event.id, response.id);
  const Response& decoded = event.response;
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.stop_reason, response.stop_reason);
  ASSERT_EQ(decoded.warnings.size(), 1u);
  EXPECT_EQ(decoded.warnings[0].code, "B102");
  EXPECT_EQ(decoded.warnings[0].message, warning.message);
  EXPECT_EQ(decoded.warnings[0].hint, warning.hint);
  ASSERT_EQ(decoded.jobs.size(), response.jobs.size());
  for (std::size_t i = 0; i < response.jobs.size(); ++i) {
    SCOPED_TRACE(response.jobs[i].label);
    EXPECT_EQ(decoded.jobs[i].state(), response.jobs[i].state());
    expect_same_job(decoded.jobs[i], response.jobs[i]);
  }
  EXPECT_EQ(encode_result(decoded), line);
}

}  // namespace
}  // namespace fmtree::serve
