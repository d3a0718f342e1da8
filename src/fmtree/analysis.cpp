#include "fmtree/analysis.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "util/error.hpp"

namespace fmtree {

Analysis::Analysis(fmt::FaultMaintenanceTree model) : model_(std::move(model)) {}

Analysis::~Analysis() = default;

Analysis Analysis::from_text(const std::string& text) {
  return Analysis(fmt::parse_fmt(text));
}

Analysis Analysis::from_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("cannot open model file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return from_text(text.str());
}

Analysis& Analysis::horizon(double years) {
  settings_.horizon = years;
  return *this;
}

Analysis& Analysis::trajectories(std::uint64_t n) {
  settings_.trajectories = n;
  return *this;
}

Analysis& Analysis::seed(std::uint64_t value) {
  settings_.seed = value;
  return *this;
}

Analysis& Analysis::threads(unsigned n) {
  settings_.threads = n;
  return *this;
}

Analysis& Analysis::confidence(double level) {
  settings_.confidence = level;
  return *this;
}

Analysis& Analysis::discount_rate(double rate) {
  settings_.discount_rate = rate;
  return *this;
}

Analysis& Analysis::target_relative_error(double rel) {
  settings_.target_relative_error = rel;
  return *this;
}

Analysis& Analysis::control(const smc::RunControl* ctl) {
  settings_.control = ctl;
  return *this;
}

Analysis& Analysis::policy_script(const std::string& source) {
  if (source.empty()) {
    settings_.policy.reset();
    return *this;
  }
  settings_.policy =
      std::make_shared<const lang::CompiledPolicy>(lang::compile_policy(source));
  return *this;
}

Analysis& Analysis::policy_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("cannot open policy script: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return policy_script(text.str());
}

Analysis& Analysis::enable_metrics() {
  if (!metrics_) metrics_ = std::make_unique<obs::MetricsRegistry>();
  settings_.telemetry.metrics = metrics_.get();
  return *this;
}

Analysis& Analysis::enable_tracing() {
  if (!tracer_) tracer_ = std::make_unique<obs::Tracer>();
  settings_.telemetry.tracer = tracer_.get();
  return *this;
}

Analysis& Analysis::on_progress(obs::ProgressFn fn, double min_interval_seconds) {
  progress_ =
      std::make_unique<obs::ProgressReporter>(std::move(fn), min_interval_seconds);
  settings_.telemetry.progress = progress_.get();
  return *this;
}

Analysis& Analysis::enable_cache() {
  if (!cache_) cache_ = std::make_unique<batch::ResultCache>();
  return *this;
}

Analysis& Analysis::cache_dir(const std::string& path) {
  cache_ = std::make_unique<batch::ResultCache>(path);
  return *this;
}

obs::MetricsRegistry& Analysis::metrics() {
  enable_metrics();
  return *metrics_;
}

obs::Tracer& Analysis::tracer() {
  enable_tracing();
  return *tracer_;
}

std::string Analysis::metrics_json() const {
  return metrics_ ? metrics_->to_json() : std::string();
}

std::string Analysis::trace_json() const {
  return tracer_ ? tracer_->to_json() : std::string();
}

std::string Analysis::chrome_trace() const {
  return tracer_ ? tracer_->to_chrome_trace() : std::string();
}

bool PendingKpis::poll() { return response_.has_value() || ticket_.done(); }

bool PendingKpis::wait_for(double seconds) {
  return response_.has_value() || ticket_.wait_for(seconds);
}

smc::KpiReport PendingKpis::wait() {
  if (!response_) {
    response_ = ticket_.take();
    // The ticket is spent; drop it now so a resolved handle no longer
    // references the service and may safely outlive its Analysis session.
    ticket_ = serve::Ticket();
  }
  if (response_->jobs.empty()) throw Error("async analysis resolved to no job");
  const batch::JobResult& job = response_->jobs.front();
  if (job.completed) return job.report;
  if (job.failed)
    throw Error("async analysis failed [" + job.failure.kind +
                "]: " + job.failure.message);
  if (job.cancelled) throw Error("async analysis was cancelled");
  throw Error("async analysis was interrupted before completion");
}

void PendingKpis::cancel() { ticket_.cancel(); }

PendingKpis Analysis::submit() {
  enable_cache();  // the service shares this session's cache (dedup + hits)
  if (!service_) {
    serve::SessionConfig config;
    config.threads = settings_.threads;
    config.cache = cache_.get();
    config.telemetry = settings_.telemetry;
    service_ = std::make_unique<serve::Session>(std::move(config));
  }
  // Cancellation is the ticket's job here: run_sweep ignores the job's own
  // control (and telemetry).
  std::vector<batch::SweepJob> jobs;
  jobs.push_back({"analysis", model_, settings_, nullptr});
  PendingKpis pending;
  pending.ticket_ = service_->submit_jobs(std::move(jobs));
  return pending;
}

smc::KpiReport Analysis::kpis() {
  if (!cache_) return smc::analyze(model_, settings_);
  const batch::CacheKey key = batch::kpi_cache_key(model_, settings_);
  // A quarantined entry's C101 is dropped: kpis() returns a bare report.
  if (std::optional<smc::KpiReport> hit = cache_->get(key, /*quarantined=*/nullptr))
    return *std::move(hit);
  smc::KpiReport report = smc::analyze(model_, settings_);
  cache_->put(key, report);  // refuses truncated reports itself
  return report;
}

std::vector<smc::CurvePoint> Analysis::reliability_curve(std::size_t points) {
  return reliability_curve(smc::linspace_grid(settings_.horizon, points));
}

std::vector<smc::CurvePoint> Analysis::reliability_curve(
    const std::vector<double>& grid) {
  return smc::reliability_curve(model_, grid, settings_);
}

std::vector<smc::CurvePoint> Analysis::expected_failures_curve(std::size_t points) {
  return smc::expected_failures_curve(
      model_, smc::linspace_grid(settings_.horizon, points), settings_);
}

smc::MttfEstimate Analysis::mttf() {
  return smc::mean_time_to_failure(model_, settings_);
}

double Analysis::exact_mttf(std::size_t max_states) {
  analytic::SolverOptions opts;
  static_cast<RunSettings&>(opts) = settings_;
  return analytic::exact_mttf(model_, max_states, opts);
}

maintenance::SweepResult Analysis::optimize_policy(
    const maintenance::ModelFactory& factory,
    const std::vector<maintenance::MaintenancePolicy>& candidates) {
  return maintenance::sweep_policies(factory, candidates, settings_, cache_.get());
}

maintenance::RefinedOptimum Analysis::optimize_inspection_frequency(
    const maintenance::ModelFactory& factory,
    const maintenance::MaintenancePolicy& base, double lo, double hi,
    int iterations) {
  return maintenance::refine_inspection_frequency(factory, base, lo, hi, settings_,
                                                  iterations, cache_.get());
}

batch::SweepOutcome Analysis::sweep(batch::SweepPlan plan) {
  if (plan.threads == 0) plan.threads = settings_.threads;
  if (plan.control == nullptr) plan.control = settings_.control;
  return batch::run_sweep(plan, cache_.get(), settings_.telemetry);
}

fleet::FleetOutcome Analysis::fleet(const fleet::CorridorSpec& spec,
                                    fleet::FleetOptions options) {
  options.settings = settings_;
  options.policy = settings_.policy;
  if (options.threads == 0) options.threads = settings_.threads;
  const fleet::Corridor corridor = fleet::generate_corridor(model_, spec);
  return fleet::analyze_fleet(corridor, options, cache_.get(), settings_.telemetry);
}

batch::SweepOutcome Analysis::sweep(
    const maintenance::ModelFactory& factory,
    const std::vector<maintenance::MaintenancePolicy>& candidates) {
  return sweep(maintenance::policy_plan(factory, candidates, settings_));
}

}  // namespace fmtree
