// The single-header public facade of the library: one `fmtree::Analysis`
// session object owning the model, the settings and the telemetry sinks, so
// a complete study — load, configure, analyse, export telemetry — reads as a
// handful of chained calls instead of a tour of the layer headers:
//
//   auto study = fmtree::Analysis::from_file("models/ei_joint.fmt")
//                    .horizon(20.0).trajectories(20000).seed(1);
//   const smc::KpiReport k = study.kpis();
//
// Everything the facade returns is the exact type the underlying layer
// produces (smc::KpiReport, smc::CurvePoint, maintenance::SweepResult, ...),
// so code can start on the facade and drop down a layer without rewriting.
//
// Telemetry sinks are opt-in and owned by the session: enable_metrics() /
// enable_tracing() / on_progress() attach them to every subsequent analysis
// call, and metrics_json() / trace_json() / chrome_trace() export what they
// collected. Enabling telemetry changes no analysis output bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytic/solvers.hpp"
#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "fleet/fleet.hpp"
#include "fmt/fmtree.hpp"
#include "maintenance/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "serve/session.hpp"
#include "smc/kpi.hpp"

namespace fmtree {

/// A pending asynchronous kpis() computation (Analysis::submit()). Move-only.
/// The handle owns one serve::Ticket on the session's embedded analysis
/// service; destroying it before wait() cancels the caller's interest (the
/// computation stops at the next trajectory boundary unless another handle
/// shares it through the cache-key dedup). An unresolved handle must not
/// outlive its Analysis; once wait() has returned the handle is detached
/// from the service and may be kept or destroyed freely.
class PendingKpis {
public:
  PendingKpis() = default;
  PendingKpis(PendingKpis&&) noexcept = default;
  PendingKpis& operator=(PendingKpis&&) noexcept = default;

  /// Non-blocking: true once the result (or failure) is available.
  bool poll();
  /// Blocks up to `seconds`; returns poll().
  bool wait_for(double seconds);
  /// Blocks until resolved and returns the report — bit-identical to what
  /// the blocking kpis() would have produced. Throws Error when the job
  /// failed, was cancelled, or the service stopped first. Idempotent.
  smc::KpiReport wait();
  /// Detaches from the computation (see class comment). Idempotent.
  void cancel();

private:
  friend class Analysis;
  serve::Ticket ticket_;
  std::optional<serve::Response> response_;
};

/// An analysis session over one fault maintenance tree.
///
/// Move-only (it owns the telemetry sinks). Settings accessors chain; every
/// analysis method reads the settings as they stand at the call, so one
/// session can answer several questions — `kpis()`, then a curve, then an
/// optimization — under identical configuration and one telemetry record.
/// Successive calls accumulate into the same metrics/trace sinks; that is
/// the point of a session (export once, with the full picture).
class Analysis {
public:
  /// Takes ownership of an in-memory model (e.g. from a builder function).
  explicit Analysis(fmt::FaultMaintenanceTree model);

  /// Parses a model in the textual FMT format (fmt::parse_fmt). Throws
  /// ParseError on malformed input. (Parsing happens before the session
  /// exists, so it cannot appear as a span; the CLI traces it separately.)
  static Analysis from_text(const std::string& text);

  /// Reads and parses a model file. Throws IoError / ParseError.
  static Analysis from_file(const std::string& path);

  Analysis(Analysis&&) noexcept = default;
  Analysis& operator=(Analysis&&) noexcept = default;
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;
  ~Analysis();

  // ---- Configuration (chainable) -----------------------------------------

  Analysis& horizon(double years);
  Analysis& trajectories(std::uint64_t n);
  Analysis& seed(std::uint64_t value);
  Analysis& threads(unsigned n);  ///< 0 = hardware concurrency
  Analysis& confidence(double level);
  Analysis& discount_rate(double rate);
  /// Adaptive stopping: simulate until the CI half-width of E[#failures]
  /// is <= rel * mean (trajectories() then caps the budget).
  Analysis& target_relative_error(double rel);
  /// Cooperative cancellation/budgets for every subsequent call.
  Analysis& control(const smc::RunControl* ctl);
  /// Compiles a maintenance-policy script (the src/lang DSL) and attaches it
  /// to every subsequent analysis call: the model's built-in inspection
  /// modules are replaced by the script's calendars and the kernel runs the
  /// compiled rules at each inspection event. Throws ParseErrors (L1xx
  /// diagnostics) on malformed scripts. An empty source detaches the policy.
  Analysis& policy_script(const std::string& source);
  /// Reads `path` and forwards to policy_script. Throws IoError/ParseErrors.
  Analysis& policy_file(const std::string& path);

  /// Full settings escape hatch (also where the embedded RunSettings live).
  smc::AnalysisSettings& settings() noexcept { return settings_; }
  const smc::AnalysisSettings& settings() const noexcept { return settings_; }
  const fmt::FaultMaintenanceTree& model() const noexcept { return model_; }

  // ---- Telemetry sinks ----------------------------------------------------

  /// Attaches a MetricsRegistry to all subsequent analysis calls.
  Analysis& enable_metrics();
  /// Attaches a Tracer (phase spans: parse/build/simulate/solve/aggregate).
  Analysis& enable_tracing();
  /// Registers a throttled progress callback (trajectory throughput, CI
  /// trend, solver residuals). Implies nothing about metrics/tracing.
  Analysis& on_progress(obs::ProgressFn fn, double min_interval_seconds = 0.25);

  // ---- Result cache -------------------------------------------------------

  /// Attaches a memory-only result cache: kpis(), sweep() and the optimizer
  /// entry points first consult it, keyed on the canonical model hash and a
  /// settings fingerprint, and store fresh results back. A hit returns the
  /// bit-exact original report. No-op if a cache is already attached.
  Analysis& enable_cache();
  /// Attaches a cache with a disk tier in `path` (created if missing; throws
  /// IoError if uncreatable), replacing any previously attached cache — so
  /// results persist across sessions and processes.
  Analysis& cache_dir(const std::string& path);
  /// The attached cache, or nullptr (hit/miss counters live in its stats()).
  batch::ResultCache* result_cache() noexcept { return cache_.get(); }

  /// The sinks themselves; enable on first access if not already enabled.
  obs::MetricsRegistry& metrics();
  obs::Tracer& tracer();

  /// Exports ("" when the corresponding sink was never enabled).
  std::string metrics_json() const;
  std::string trace_json() const;
  std::string chrome_trace() const;

  // ---- Analyses -----------------------------------------------------------
  //
  // The blocking entry points below are retained for compatibility and for
  // scripts where blocking is the natural shape; new code that overlaps an
  // analysis with other work should prefer the asynchronous
  // submit()/poll()/wait() path, which also deduplicates identical
  // concurrent submissions (see serve/session.hpp).

  /// All KPIs of the study: reliability, E[#failures], availability, cost.
  /// Blocking (see the section comment); submit() is the async equivalent.
  smc::KpiReport kpis();

  /// Asynchronous kpis(): snapshots the model and settings as they stand,
  /// enqueues the computation on the session's embedded analysis service
  /// (serve::Session — created on first use with this session's cache and
  /// telemetry) and returns immediately. Identical concurrent submissions
  /// dedup onto one computation; all handles receive the same bit-exact
  /// report. Settings changed after submit() do not affect a pending handle.
  PendingKpis submit();

  /// P(first failure > t) on an even grid of `points` intervals over the
  /// horizon, or on an explicit grid.
  std::vector<smc::CurvePoint> reliability_curve(std::size_t points = 50);
  std::vector<smc::CurvePoint> reliability_curve(const std::vector<double>& grid);

  /// E[cumulative failures by t] on an even grid of `points` intervals.
  std::vector<smc::CurvePoint> expected_failures_curve(std::size_t points = 50);

  /// Monte-Carlo mean time to first failure (right-censored at the horizon).
  smc::MttfEstimate mttf();

  /// Exact MTTF via the CTMC solver (Markovian models only; throws
  /// UnsupportedModelError otherwise). Honors control + telemetry.
  double exact_mttf(std::size_t max_states = std::size_t{1} << 20);

  /// Evaluates every candidate policy under this session's settings and
  /// returns the cost curve plus the optimum. The factory rebuilds the model
  /// per policy; this session's own model is not used.
  maintenance::SweepResult optimize_policy(
      const maintenance::ModelFactory& factory,
      const std::vector<maintenance::MaintenancePolicy>& candidates);

  /// Golden-section refinement of the inspection frequency in [lo, hi].
  maintenance::RefinedOptimum optimize_inspection_frequency(
      const maintenance::ModelFactory& factory,
      const maintenance::MaintenancePolicy& base, double lo, double hi,
      int iterations = 16);

  /// Runs an explicit batch plan through the shared trajectory pool with
  /// this session's cache and telemetry. The plan's threads (when 0) and
  /// control (when null) default to this session's settings; its jobs carry
  /// their own models and settings, so they need not match the session's.
  batch::SweepOutcome sweep(batch::SweepPlan plan);

  /// Convenience: builds one job per candidate policy under the session
  /// settings (labels = policy names) and runs it as above.
  batch::SweepOutcome sweep(
      const maintenance::ModelFactory& factory,
      const std::vector<maintenance::MaintenancePolicy>& candidates);

  /// Instantiates a corridor of joints from this session's model
  /// (fleet::generate_corridor) and analyses every joint through the shared
  /// pool with this session's cache and telemetry. The session settings —
  /// including any policy_script() — apply to every joint; options.settings
  /// and options.policy are overwritten with them, while resources, worst_k
  /// and the execution knobs are honoured (threads defaults to the session's).
  /// Throws DomainError on an invalid corridor spec.
  fleet::FleetOutcome fleet(const fleet::CorridorSpec& spec,
                            fleet::FleetOptions options = {});

private:
  fmt::FaultMaintenanceTree model_;
  smc::AnalysisSettings settings_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::ProgressReporter> progress_;
  std::unique_ptr<batch::ResultCache> cache_;
  /// The embedded analysis service backing submit(). Created lazily (it owns
  /// a dispatcher thread); declared last so it drains before the cache and
  /// sinks it borrows are destroyed.
  std::unique_ptr<serve::Session> service_;
};

}  // namespace fmtree
