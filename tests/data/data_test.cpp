#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "data/estimate.hpp"
#include "data/generator.hpp"
#include "data/incident.hpp"
#include "data/stream.hpp"
#include "data/validate.hpp"
#include "sim/sampler.hpp"
#include "util/error.hpp"

namespace fmtree::data {
namespace {

using fmt::CorrectivePolicy;
using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::NodeId;

// ---- IncidentDatabase --------------------------------------------------------

TEST(IncidentDatabase, ValidatesRecords) {
  IncidentDatabase db(10, 5.0);
  EXPECT_NO_THROW(db.add({3, 2.5, "lipping"}));
  EXPECT_THROW(db.add({10, 1.0, "x"}), DomainError);   // asset out of range
  EXPECT_THROW(db.add({0, 6.0, "x"}), DomainError);    // beyond window
  EXPECT_THROW(db.add({0, -1.0, "x"}), DomainError);
  EXPECT_THROW(db.add({0, 1.0, ""}), DomainError);
  EXPECT_THROW(IncidentDatabase(0, 1.0), DomainError);
  EXPECT_THROW(IncidentDatabase(1, 0.0), DomainError);
}

TEST(IncidentDatabase, RatesAndCounts) {
  IncidentDatabase db(20, 10.0);
  db.add({0, 1.0, "a"});
  db.add({1, 2.0, "a"});
  db.add({2, 3.0, "b"});
  EXPECT_DOUBLE_EQ(db.exposure(), 200.0);
  EXPECT_DOUBLE_EQ(db.failure_rate(), 3.0 / 200.0);
  const auto counts = db.counts_by_mode();
  EXPECT_EQ(counts.at("a"), 2u);
  EXPECT_EQ(counts.at("b"), 1u);
}

TEST(IncidentDatabase, CsvRoundTrip) {
  IncidentDatabase db(5, 3.0);
  db.add({0, 0.5, "mode with, comma"});
  db.add({4, 2.999, "clean"});
  const std::string path = testing::TempDir() + "fmtree_incident_roundtrip.csv";
  {
    IncidentStreamWriter writer(path);
    for (const IncidentRecord& r : db.records()) writer.add(r);
    writer.close();
  }
  IncidentStreamReader reader(path);
  std::vector<IncidentRecord> loaded;
  IncidentRecord record;
  while (reader.next(record)) loaded.push_back(record);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].failure_mode, "mode with, comma");
  EXPECT_NEAR(loaded[1].time, 2.999, 1e-9);
  EXPECT_EQ(loaded[1].asset_id, 4u);
  std::remove(path.c_str());
}

// ---- Generator ------------------------------------------------------------------

FaultMaintenanceTree ground_truth() {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("wear", DegradationModel::erlang(3, 4.0, 2),
                             fmt::RepairSpec{"fix", 100});
  const NodeId b = m.add_basic_event("shock", Distribution::exponential(0.1));
  m.set_top(m.add_or("top", {a, b}));
  m.set_corrective(CorrectivePolicy{true, 0.0, 1000, 0});
  return m;
}

TEST(Generator, IncidentRatesMatchModelPrediction) {
  const FaultMaintenanceTree m = ground_truth();
  const IncidentDatabase db = generate_incidents(m, 500, 10.0, 42);
  // Without inspections the system is a renewal process over
  // min(Erlang(3, 0.75), Exp(0.1)); rate roughly 1/mean of the min. Sanity:
  // between 0.1 (shock only) and 0.6.
  EXPECT_GT(db.failure_rate(), 0.15);
  EXPECT_LT(db.failure_rate(), 0.60);
  // Both modes appear.
  const auto counts = db.counts_by_mode();
  EXPECT_GT(counts.at("wear"), 0u);
  EXPECT_GT(counts.at("shock"), 0u);
}

TEST(Generator, DeterministicInSeed) {
  const FaultMaintenanceTree m = ground_truth();
  const IncidentDatabase a = generate_incidents(m, 50, 5.0, 7);
  const IncidentDatabase b = generate_incidents(m, 50, 5.0, 7);
  const IncidentDatabase c = generate_incidents(m, 50, 5.0, 8);
  const auto times = [](const IncidentDatabase& db) {
    std::vector<double> t;
    for (const IncidentRecord& r : db.records()) t.push_back(r.time);
    return t;
  };
  EXPECT_EQ(times(a), times(b));
  EXPECT_NE(times(a), times(c));  // continuous failure times: never all equal
}

TEST(Generator, InfiniteObservationWindowThrows) {
  // An asset observed forever never ends: the kernel refuses the horizon.
  const double forever = std::numeric_limits<double>::infinity();
  EXPECT_THROW(generate_incidents(ground_truth(), 1, forever, 7), DomainError);
}

TEST(Generator, SinkReceivesTheDatabaseRecordsInOrder) {
  const FaultMaintenanceTree m = ground_truth();
  const IncidentDatabase db = generate_incidents(m, 60, 5.0, 11);
  std::vector<IncidentRecord> streamed;
  generate_incidents(m, 60, 5.0, 11,
                     [&streamed](const IncidentRecord& r) { streamed.push_back(r); });
  ASSERT_GT(streamed.size(), 0u);
  ASSERT_EQ(streamed.size(), db.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].asset_id, db.records()[i].asset_id) << i;
    EXPECT_EQ(streamed[i].time, db.records()[i].time) << i;
    EXPECT_EQ(streamed[i].failure_mode, db.records()[i].failure_mode) << i;
  }
  for (std::size_t i = 1; i < streamed.size(); ++i)
    EXPECT_GE(streamed[i].asset_id, streamed[i - 1].asset_id) << i;
}

TEST(Generator, ElicitationMatchesDegradationMoments) {
  const FaultMaintenanceTree m = ground_truth();
  const NodeId wear = *m.find("wear");
  const auto samples = elicit_degradation(m, wear, 50000, 1);
  ASSERT_EQ(samples.size(), 50000u);
  double mean_ttf = 0, mean_thresh = 0;
  for (const DegradationSample& s : samples) {
    EXPECT_GE(s.time_to_failure, s.time_to_threshold);
    mean_ttf += s.time_to_failure;
    mean_thresh += s.time_to_threshold;
  }
  mean_ttf /= static_cast<double>(samples.size());
  mean_thresh /= static_cast<double>(samples.size());
  EXPECT_NEAR(mean_ttf, 4.0, 0.05);
  // Threshold phase 2 of 3: expected time to threshold = 1 phase = 4/3.
  EXPECT_NEAR(mean_thresh, 4.0 / 3.0, 0.04);
}

TEST(Generator, ElicitationOfUndetectableModeGivesThresholdAtFailure) {
  const FaultMaintenanceTree m = ground_truth();
  const auto samples = elicit_degradation(m, *m.find("shock"), 100, 1);
  for (const DegradationSample& s : samples)
    EXPECT_DOUBLE_EQ(s.time_to_threshold, s.time_to_failure);
}

// ---- Estimators ------------------------------------------------------------------

TEST(EstimateRate, PointAndIntervalProperties) {
  const RateEstimate est = estimate_rate(50, 1000.0);
  EXPECT_DOUBLE_EQ(est.rate, 0.05);
  EXPECT_LT(est.lo, 0.05);
  EXPECT_GT(est.hi, 0.05);
  // Garwood 95% for k=50: roughly [0.0371, 0.0659].
  EXPECT_NEAR(est.lo, 0.0371, 0.001);
  EXPECT_NEAR(est.hi, 0.0659, 0.001);
}

TEST(EstimateRate, ZeroEventsLowerBoundZero) {
  const RateEstimate est = estimate_rate(0, 100.0);
  EXPECT_DOUBLE_EQ(est.rate, 0.0);
  EXPECT_DOUBLE_EQ(est.lo, 0.0);
  // Upper bound for 0 events at 95%: -ln(0.025)/T = 3.689/T.
  EXPECT_NEAR(est.hi, 3.689 / 100.0, 0.001);
}

TEST(EstimateRate, Validation) {
  EXPECT_THROW(estimate_rate(1, 0.0), DomainError);
  EXPECT_THROW(estimate_rate(1, 10.0, 1.5), DomainError);
  EXPECT_THROW(estimate_rate(1, std::numeric_limits<double>::infinity()), DomainError);
  EXPECT_THROW(estimate_rate(1, std::nan("")), DomainError);
}

TEST(GammaQuantile, RoundTripsThroughGammaP) {
  for (double shape : {0.5, 1.0, 3.0, 10.0}) {
    for (double p : {0.05, 0.5, 0.95}) {
      const double x = gamma_quantile(shape, p);
      EXPECT_NEAR(gamma_p(shape, x), p, 1e-8) << shape << " " << p;
    }
  }
  EXPECT_THROW(gamma_quantile(0, 0.5), DomainError);
  EXPECT_THROW(gamma_quantile(1, 0.0), DomainError);
}

TEST(FitErlang, RecoversShapeAndRate) {
  CounterStream rng(5, 0);
  const Distribution truth = Distribution::erlang(4, 0.5);  // mean 8
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sim::SojournSampler::sample(truth, rng));
  const ErlangFit fit = fit_erlang(samples);
  EXPECT_EQ(fit.shape, 4);
  EXPECT_NEAR(fit.rate, 0.5, 0.02);
  EXPECT_NEAR(fit.mean(), 8.0, 0.2);
}

TEST(FitErlang, ExponentialDataGivesShapeOne) {
  CounterStream rng(6, 0);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(sim::SojournSampler::sample(Distribution::exponential(0.2), rng));
  EXPECT_EQ(fit_erlang(samples).shape, 1);
}

TEST(FitErlang, Validation) {
  EXPECT_THROW(fit_erlang({}), DomainError);
  EXPECT_THROW(fit_erlang({1.0, -1.0}), DomainError);
  EXPECT_THROW(fit_erlang({1.0, 0.0}), DomainError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fit_erlang({1.0, inf}), DomainError);
  EXPECT_THROW(fit_erlang({1.0, std::nan("")}), DomainError);
}

TEST(FitErlang, SingleSampleClampsInsteadOfThrowing) {
  const ErlangFit fit = fit_erlang({4.0});
  EXPECT_TRUE(fit.degenerate);
  EXPECT_FALSE(fit.note.empty());
  EXPECT_EQ(fit.shape, kDegenerateErlangShape);
  EXPECT_TRUE(std::isfinite(fit.rate));
  EXPECT_NEAR(fit.mean(), 4.0, 1e-12);
}

TEST(FitErlang, AllEqualSamplesClampWithFiniteRate) {
  const ErlangFit fit = fit_erlang({2.5, 2.5, 2.5, 2.5});
  EXPECT_TRUE(fit.degenerate);
  EXPECT_EQ(fit.shape, kDegenerateErlangShape);
  EXPECT_TRUE(std::isfinite(fit.rate));
  EXPECT_GT(fit.rate, 0.0);
  EXPECT_NEAR(fit.mean(), 2.5, 1e-12);
}

TEST(FitErlang, NearZeroVarianceClampsShapeInsteadOfOverflowing) {
  // Relative spread ~1e-12 gives mean^2/var ~1e24, far past INT_MAX; the
  // fit must clamp to the ceiling, not overflow the integer cast.
  const ErlangFit fit = fit_erlang({1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0});
  EXPECT_TRUE(fit.degenerate);
  EXPECT_EQ(fit.shape, kDegenerateErlangShape);
  EXPECT_TRUE(std::isfinite(fit.rate));
}

TEST(FitDegradation, RecoversFullModelFromElicitation) {
  FaultMaintenanceTree m;
  m.set_top(m.add_ebe("mode", DegradationModel::erlang(5, 10.0, 3)));
  const auto samples = elicit_degradation(m, *m.find("mode"), 20000, 9);
  const DegradationModel fitted = fit_degradation(samples);
  EXPECT_EQ(fitted.phases(), 5);
  EXPECT_EQ(fitted.threshold_phase(), 3);
  EXPECT_NEAR(fitted.mean_time_to_failure(), 10.0, 0.3);
}

TEST(FitDegradation, SingleSampleFitsClampedModel) {
  const DegradationModel fitted = fit_degradation({{2.0, 5.0}});
  EXPECT_EQ(fitted.phases(), kDegenerateErlangShape);
  EXPECT_NEAR(fitted.mean_time_to_failure(), 5.0, 1e-9);
  EXPECT_THROW(fit_degradation({}), DomainError);
  EXPECT_THROW(fit_degradation({{std::nan(""), 5.0}}), DomainError);
  EXPECT_THROW(fit_degradation({{1.0, std::nan("")}}), DomainError);
}

TEST(FitDegradation, UndetectableModeFitsThresholdPastEnd) {
  FaultMaintenanceTree m;
  m.set_top(m.add_ebe("mode", DegradationModel::erlang(3, 6.0, 4)));
  const auto samples = elicit_degradation(m, *m.find("mode"), 20000, 9);
  const DegradationModel fitted = fit_degradation(samples);
  EXPECT_FALSE(fitted.inspectable());
}

// ---- Validation pipeline ----------------------------------------------------------

TEST(Validate, GroundTruthModelValidatesAgainstOwnData) {
  const FaultMaintenanceTree m = ground_truth();
  const IncidentDatabase holdout = generate_incidents(m, 400, 10.0, 1234);
  smc::AnalysisSettings s;
  s.trajectories = 4000;
  s.seed = 99;
  const ValidationReport report = validate_against(m, holdout, s);
  EXPECT_TRUE(report.system.intervals_overlap)
      << "observed " << report.system.observed.rate << " predicted "
      << report.system.predicted.point;
  ASSERT_EQ(report.modes.size(), 2u);
  for (const ValidationRow& row : report.modes)
    EXPECT_TRUE(row.intervals_overlap) << row.label;
}

TEST(Validate, WrongModelFailsValidation) {
  const FaultMaintenanceTree truth = ground_truth();
  const IncidentDatabase holdout = generate_incidents(truth, 400, 10.0, 77);
  // Candidate with a shock rate 10x too high must not match.
  FaultMaintenanceTree wrong;
  const NodeId a = wrong.add_ebe("wear", DegradationModel::erlang(3, 4.0, 2),
                                 fmt::RepairSpec{"fix", 100});
  const NodeId b = wrong.add_basic_event("shock", Distribution::exponential(1.0));
  wrong.set_top(wrong.add_or("top", {a, b}));
  wrong.set_corrective(CorrectivePolicy{true, 0.0, 1000, 0});
  smc::AnalysisSettings s;
  s.trajectories = 4000;
  s.seed = 99;
  const ValidationReport report = validate_against(wrong, holdout, s);
  EXPECT_FALSE(report.system.intervals_overlap);
}

}  // namespace
}  // namespace fmtree::data
