// The failure-log memory cap: ParallelRunner bounds the total number of
// retained sim::FailureRecord entries per batch, drops whole per-trajectory
// logs beyond the budget (flagging the batch), and the statistics layer
// refuses to compute a curve from incomplete logs.
#include <gtest/gtest.h>

#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "smc/kpi.hpp"
#include "smc/runner.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

// A fast-failing renewal model so every trajectory logs several failures.
const char* kChattyModel = R"(
toplevel System;
System or Part;
Part be exp(2.0);
corrective cost=100 delay=0;
)";

TEST(FailureLogCap, UncappedRunKeepsEveryLog) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kChattyModel);
  const ParallelRunner runner(model, 2);
  sim::SimOptions opts;
  opts.horizon = 5.0;
  opts.record_failure_log = true;
  const BatchResult batch = runner.run(7, 0, 200, opts);
  EXPECT_FALSE(batch.failure_logs_truncated);
  ASSERT_EQ(batch.failure_logs.size(), 200u);
  std::size_t records = 0;
  for (const auto& log : batch.failure_logs) records += log.size();
  EXPECT_GT(records, 200u);  // ~10 failures per trajectory at rate 2, t=5
}

TEST(FailureLogCap, CapDropsWholeLogsAndFlagsTheBatch) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kChattyModel);
  const ParallelRunner runner(model, 2);

  sim::SimOptions opts;
  opts.horizon = 5.0;
  opts.record_failure_log = true;
  opts.failure_log_cap = 50;  // far below the ~2000 records the run produces
  obs::MetricsRegistry metrics;
  opts.telemetry.metrics = &metrics;
  const BatchResult batch = runner.run(7, 0, 200, opts);

  EXPECT_TRUE(batch.failure_logs_truncated);
  ASSERT_EQ(batch.failure_logs.size(), 200u);  // slots stay index-aligned
  std::size_t kept_records = 0, kept_logs = 0, dropped_logs = 0;
  for (const auto& log : batch.failure_logs) {
    if (log.empty()) {
      ++dropped_logs;
    } else {
      ++kept_logs;
      kept_records += log.size();
    }
  }
  EXPECT_LE(kept_records, 50u);  // the budget bounds retained records
  EXPECT_GT(kept_logs, 0u);      // but some logs fit
  EXPECT_GT(dropped_logs, 0u);
  // Every dropped record is counted, and summaries are unaffected.
  EXPECT_GT(metrics.counter_value("smc.failure_log_records_dropped"), 0u);
  EXPECT_EQ(batch.summaries.size(), 200u);
  EXPECT_EQ(batch.completed, 200u);
}

TEST(FailureLogCap, SingleThreadedCapKeepsAPrefixDeterministically) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kChattyModel);
  const ParallelRunner runner(model, 1);
  sim::SimOptions opts;
  opts.horizon = 5.0;
  opts.record_failure_log = true;
  opts.failure_log_cap = 50;
  const BatchResult a = runner.run(7, 0, 200, opts);
  const BatchResult b = runner.run(7, 0, 200, opts);
  // At one thread trajectories run in index order, so which logs are
  // retained is a pure function of (seed, cap): repeat runs agree exactly.
  ASSERT_EQ(a.failure_logs.size(), b.failure_logs.size());
  for (std::size_t i = 0; i < a.failure_logs.size(); ++i)
    EXPECT_EQ(a.failure_logs[i].size(), b.failure_logs[i].size()) << i;
}

TEST(FailureLogCap, CurveEstimationRefusesTruncatedLogs) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kChattyModel);
  AnalysisSettings s;
  s.horizon = 5.0;
  s.trajectories = 200;
  s.seed = 7;
  s.threads = 2;
  s.failure_log_cap = 50;
  EXPECT_THROW(expected_failures_curve(model, linspace_grid(5.0, 10), s),
               ResourceLimitError);

  s.failure_log_cap = std::uint64_t{1} << 24;
  const auto curve = expected_failures_curve(model, linspace_grid(5.0, 10), s);
  EXPECT_EQ(curve.size(), 11u);
  EXPECT_GT(curve.back().value.point, 5.0);  // E[failures by t=5] ~ 10
}

}  // namespace
}  // namespace fmtree::smc
