// The fmtree::Analysis facade: one session object must produce exactly what
// smc::analyze produces, blocking or through submit()/wait(), and its
// metrics sink must follow the session (accumulate across calls).
#include "fmtree/analysis.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "fmt/parser.hpp"

namespace fmtree {
namespace {

const char* kModel = R"(
toplevel System;
System or Wear Electronics;
Wear ebe phases=4 mean=6 threshold=3 repair_cost=800;
Electronics be exp(0.08);
inspection Visual period=0.5 cost=35 targets Wear;
corrective cost=8000 delay=0.02 downtime_rate=50000;
)";

TEST(AnalysisFacade, MatchesTheLayerApisExactly) {
  smc::AnalysisSettings s;
  s.horizon = 8.0;
  s.trajectories = 3000;
  s.seed = 11;
  s.threads = 2;
  const smc::KpiReport direct = smc::analyze(fmt::parse_fmt(kModel), s);

  Analysis study(fmt::parse_fmt(kModel));
  study.horizon(8.0).trajectories(3000).seed(11);
  study.settings().threads = 2;
  const smc::KpiReport facade = study.kpis();

  EXPECT_EQ(facade.trajectories, direct.trajectories);
  EXPECT_EQ(std::memcmp(&facade.reliability, &direct.reliability,
                        sizeof(direct.reliability)),
            0);
  EXPECT_EQ(std::memcmp(&facade.total_cost, &direct.total_cost,
                        sizeof(direct.total_cost)),
            0);
}

TEST(AnalysisFacade, SettingsChainAndEscapeHatchAgree) {
  Analysis study(fmt::parse_fmt(kModel));
  study.horizon(5.0).trajectories(123).seed(99);
  EXPECT_DOUBLE_EQ(study.settings().horizon, 5.0);
  EXPECT_EQ(study.settings().trajectories, 123u);
  EXPECT_EQ(study.settings().seed, 99u);
  study.settings().batch = 500;  // escape hatch reaches everything else
  EXPECT_EQ(study.settings().batch, 500u);
  EXPECT_GT(study.model().num_ebes(), 0u);
}

TEST(AnalysisFacade, TelemetryAccumulatesAcrossTheSession) {
  Analysis study(fmt::parse_fmt(kModel));
  study.horizon(8.0).trajectories(500).seed(1).enable_metrics();
  study.kpis();
  EXPECT_EQ(study.metrics().counter_value("smc.trajectories"), 500u);
  study.kpis();
  EXPECT_EQ(study.metrics().counter_value("smc.trajectories"), 1000u);
}

TEST(AnalysisFacade, AsyncSubmitMatchesBlockingKpisBitExactly) {
  Analysis blocking(fmt::parse_fmt(kModel));
  blocking.horizon(8.0).trajectories(3000).seed(11);
  blocking.settings().threads = 2;
  const smc::KpiReport reference = blocking.kpis();

  Analysis study(fmt::parse_fmt(kModel));
  study.horizon(8.0).trajectories(3000).seed(11);
  study.settings().threads = 2;
  PendingKpis pending = study.submit();
  const smc::KpiReport async = pending.wait();
  EXPECT_EQ(std::memcmp(&async.reliability, &reference.reliability,
                        sizeof(reference.reliability)),
            0);
  EXPECT_EQ(std::memcmp(&async.total_cost, &reference.total_cost,
                        sizeof(reference.total_cost)),
            0);
  // wait() is idempotent, and the second submission of the same study is a
  // cache hit on the session's service — same bits again.
  EXPECT_EQ(pending.wait().trajectories, reference.trajectories);
  const smc::KpiReport again = study.submit().wait();
  EXPECT_EQ(std::memcmp(&again.reliability, &reference.reliability,
                        sizeof(reference.reliability)),
            0);
}

TEST(AnalysisFacade, ResolvedAsyncHandleMayOutliveItsSession) {
  PendingKpis resolved;
  {
    Analysis study(fmt::parse_fmt(kModel));
    study.horizon(8.0).trajectories(500).seed(11);
    resolved = study.submit();
    resolved.wait();
  }  // the Analysis (and its embedded service) are gone
  EXPECT_GT(resolved.wait().trajectories, 0u);
}

}  // namespace
}  // namespace fmtree
