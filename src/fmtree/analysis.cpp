#include "fmtree/analysis.hpp"

#include <utility>

#include "util/error.hpp"

namespace fmtree {

Analysis::Analysis(fmt::FaultMaintenanceTree model) : model_(std::move(model)) {}

Analysis::~Analysis() = default;

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

Analysis& Analysis::enable_metrics() {
  if (!metrics_) metrics_ = std::make_unique<obs::MetricsRegistry>();
  settings_.telemetry.metrics = metrics_.get();
  return *this;
}

obs::MetricsRegistry& Analysis::metrics() {
  enable_metrics();
  return *metrics_;
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

PendingKpis Analysis::submit() {
  if (!service_) {
    serve::SessionConfig config;
    config.threads = settings_.threads;
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

smc::KpiReport Analysis::kpis() { return smc::analyze(model_, settings_); }

}  // namespace fmtree
