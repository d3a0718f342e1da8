// study_cold — one planner's cold study of one EI joint, closed loop with one
// caller: parse the model, run smc::analyze on it, then the paper's 10-point
// cost curve (claim C4) through batch::run_sweep with a fresh memory-only
// cache. Almost all time goes to the trajectory kernel and the two
// trajectory loops (the analyze runner and the sweep pool).
#include <cmath>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "eijoint/params.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "smc/kpi.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace fmtree;

constexpr unsigned kWidth = kStudyWidth;
constexpr std::uint64_t kAnalyzeTrajectories = 200000;
constexpr std::uint64_t kCurveTrajectories = 20000;
constexpr double kAnalyzeHorizon = 10.0;
constexpr double kCurveHorizon = 20.0;  // the F7 bench's horizon
/// Set-up takes ~0.2 ms. It is repeated after every cycle too, so its median
/// spans the whole run instead of one noisy instant at start.
constexpr int kSetupRepsPerCycle = 20;
constexpr int kMinCycles = 3;

/// Reliability of models/ei_joint.fmt at horizon 10 (seed 42, 50000 runs)
/// and that estimate's 95% half-width.
constexpr double kReferenceReliability = 0.71452;
constexpr double kReferenceHalfWidth = 0.00396;

smc::AnalysisSettings analyze_settings(std::uint64_t seed) {
  smc::AnalysisSettings s;
  s.trajectories = kAnalyzeTrajectories;
  s.horizon = kAnalyzeHorizon;
  s.threads = kWidth;
  s.seed = seed;
  return s;
}

smc::AnalysisSettings curve_settings(std::uint64_t seed) {
  smc::AnalysisSettings s;
  s.trajectories = kCurveTrajectories;
  s.horizon = kCurveHorizon;
  s.seed = seed;
  return s;
}

}  // namespace

Result run_study_cold(const Options& options, ScratchDir& /*scratch*/,
                      const LayerProbe* /*probe*/) {
  Result result;
  result.note(environment_line(options, kWidth));
  const eijoint::EiJointParameters params = eijoint::EiJointParameters::defaults();

  // Set-up: read and parse the model, build the curve plan.
  Samples setup;
  std::string text;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    text = read_file(kEiJointModel);
    const fmt::FaultMaintenanceTree model = fmt::parse_fmt(text);
    const batch::SweepPlan plan = eijoint::cost_curve_plan(params, curve_settings(options.seed));
    setup.add(seconds_since(t0));
  };
  set_up();

  SpanLog log(options.trace);
  obs::MetricsRegistry registry;
  Samples analyze_s, curve_s, traced_op_s, untraced_op_s;
  std::uint64_t curve_events = 0;
  double traced_curve_s = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t cycle = 0;
       cycle < static_cast<std::uint64_t>(kMinCycles) || seconds_since(start) < options.seconds;
       ++cycle) {
    const std::uint64_t seed = mix_seed(options.seed, cycle);
    // The traced run alternates traced and untraced cycles so the tracing
    // overhead is measured on the same mix of operations.
    const bool traced = options.trace && cycle % 2 == 0;
    log.set_enabled(traced);
    log.set_op(cycle);
    obs::Telemetry telemetry;
    if (traced) telemetry.metrics = &registry;
    const std::uint64_t events_before = registry.counter_value("batch.events");

    const auto op_start = Clock::now();
    auto op = log.span("op.study");
    fmt::FaultMaintenanceTree model = [&] {
      auto s = log.span("fmt.parse_fmt");
      return fmt::parse_fmt(text);
    }();

    const auto t_analyze = Clock::now();
    smc::KpiReport report;
    {
      auto s = log.span("smc.analyze");
      report = smc::analyze(model, analyze_settings(seed));
    }
    const double analyze_wall = seconds_since(t_analyze);

    const auto t_curve = Clock::now();
    batch::SweepOutcome curve;
    {
      batch::SweepPlan plan = [&] {
        auto s = log.span("eijoint.cost_curve_plan");
        return eijoint::cost_curve_plan(params, curve_settings(seed));
      }();
      plan.threads = kWidth;
      auto cache_span = log.span("batch.ResultCache");
      batch::ResultCache cache;
      cache_span.close();
      auto s = log.span("batch.run_sweep");
      curve = batch::run_sweep(plan, &cache, telemetry);
    }
    const double curve_wall = seconds_since(t_curve);
    op.close();
    const double op_wall = seconds_since(op_start);

    analyze_s.add(analyze_wall);
    curve_s.add(curve_wall);
    if (options.trace) (traced ? traced_op_s : untraced_op_s).add(op_wall);
    if (traced) {
      curve_events += registry.counter_value("batch.events") - events_before;
      traced_curve_s += curve_wall;
    }

    // Output checks (outside the timed region).
    result.attempted += 2;
    const double half = (report.reliability.hi - report.reliability.lo) / 2.0;
    const double band = 4.0 * std::hypot(half, kReferenceHalfWidth);
    const bool analyze_ok = !report.truncated && report.trajectories == kAnalyzeTrajectories &&
                            std::fabs(report.reliability.point - kReferenceReliability) <= band;
    result.check(analyze_ok, "cycle " + std::to_string(cycle) + ": reliability " +
                                 std::to_string(report.reliability.point) +
                                 " outside 4 CI half-widths of 0.71452");
    bool curve_ok = curve.jobs_failed == 0 && !curve.truncated && curve.cache_misses == 10 &&
                    curve.results.size() == 10;
    double best = INFINITY, current = NAN;
    for (const batch::JobResult& job : curve.results) {
      curve_ok = curve_ok && job.completed && !job.cache_hit;
      best = std::fmin(best, job.report.cost_per_year.point);
      if (job.label == "4x-per-year") current = job.report.cost_per_year.point;
    }
    // F7 shape check (claim C4): the current 4x/yr policy is within 15% of
    // the cheapest point of the curve.
    curve_ok = curve_ok && current <= 1.15 * best;
    result.check(curve_ok, "cycle " + std::to_string(cycle) +
                               ": cost curve failed F7 shape check or a job failed");
    result.failed += (analyze_ok ? 0 : 1) + (curve_ok ? 0 : 1);
    for (int i = 0; i < kSetupRepsPerCycle; ++i) set_up();
  }

  result.extra("analyze_s", "s", analyze_s.median(), analyze_s.size());
  result.extra("curve_s", "s", curve_s.median(), curve_s.size());
  result.extra("failed_ratio", "ratio",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               result.attempted);
  if (!options.trace) {
    result.metric("setup_s", "s", setup.median(), setup.size());
    result.metric("main_ms", "ms", 1e3 * analyze_s.median(), analyze_s.size());
    result.metric("heavy_ms", "ms", 1e3 * curve_s.median(), curve_s.size());
    return result;
  }

  result.metric("unattributed_pct", "%", report_trace(log, traced_op_s, untraced_op_s, result),
                traced_op_s.size());
  // Scaling: the curve's events/s against width x the 1-thread rate of the
  // same ten models (the probe's smc.ns_per_event is for ei_joint.fmt at
  // horizon 10, whose events cost more than the curve's).
  batch::SweepPlan single = eijoint::cost_curve_plan(params, curve_settings(options.seed));
  for (batch::SweepJob& job : single.jobs) job.settings.trajectories = kCurveTrajectories / 4;
  single.threads = 1;
  obs::MetricsRegistry single_registry;
  const auto t_single = Clock::now();
  (void)batch::run_sweep(single, nullptr, {&single_registry, nullptr, nullptr});
  const double single_events_per_s =
      static_cast<double>(single_registry.counter_value("batch.events")) / seconds_since(t_single);
  result.extra("batch.curve_1thread_ns_per_event", "ns", 1e9 / single_events_per_s, 1);
  result.metric("batch.scaling_eff", "ratio",
                static_cast<double>(curve_events) / traced_curve_s / (kWidth * single_events_per_s),
                traced_op_s.size());
  // Per traced cost-curve sweep.
  const double sweeps = static_cast<double>(traced_op_s.size());
  result.metric("batch.tasks", "count", registry.counter_value("batch.tasks") / sweeps,
                traced_op_s.size());
  result.metric("batch.steals", "count", registry.counter_value("batch.steals") / sweeps,
                traced_op_s.size());
  return result;
}

}  // namespace e2e
