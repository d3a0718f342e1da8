// The single-header public facade of the library: one `fmtree::Analysis`
// session object owning the model, the settings and the metrics sink, so a
// study reads as a handful of chained calls instead of a tour of the layer
// headers:
//
//   fmtree::Analysis study(std::move(model));
//   study.horizon(20.0).trajectories(20000).seed(1);
//   const smc::KpiReport k = study.kpis();
//
// Everything the facade returns is the exact type the underlying layer
// produces (smc::KpiReport), so code can start on the facade and drop down
// a layer without rewriting: every other setting is reachable through
// settings(), and the curves, sweeps and fleets live in smc/, batch/ and
// fleet/.
//
// The metrics sink is opt-in and owned by the session: enable_metrics()
// attaches it to every subsequent analysis call. Enabling it changes no
// analysis output bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "fmt/fmtree.hpp"
#include "obs/metrics.hpp"
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

  /// Blocks until resolved and returns the report — bit-identical to what
  /// the blocking kpis() would have produced. Throws Error when the job
  /// failed, was cancelled, or the service stopped first. Idempotent.
  smc::KpiReport wait();

private:
  friend class Analysis;
  serve::Ticket ticket_;
  std::optional<serve::Response> response_;
};

/// An analysis session over one fault maintenance tree.
///
/// Move-only (it owns the metrics sink). Settings accessors chain; every
/// analysis call reads the settings as they stand at the call. Successive
/// calls accumulate into the same metrics sink.
class Analysis {
public:
  /// Takes ownership of an in-memory model (e.g. from a builder function).
  explicit Analysis(fmt::FaultMaintenanceTree model);

  Analysis(Analysis&&) noexcept = default;
  Analysis& operator=(Analysis&&) noexcept = default;
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;
  ~Analysis();

  // ---- Configuration (chainable) -----------------------------------------

  Analysis& horizon(double years);
  Analysis& trajectories(std::uint64_t n);
  Analysis& seed(std::uint64_t value);

  /// Full settings escape hatch (threads, confidence, policy, control, ...).
  smc::AnalysisSettings& settings() noexcept { return settings_; }
  const smc::AnalysisSettings& settings() const noexcept { return settings_; }
  const fmt::FaultMaintenanceTree& model() const noexcept { return model_; }

  // ---- Telemetry ----------------------------------------------------------

  /// Attaches a MetricsRegistry to all subsequent analysis calls.
  Analysis& enable_metrics();
  /// The sink itself; enables it on first access.
  obs::MetricsRegistry& metrics();

  // ---- Analyses -----------------------------------------------------------

  /// All KPIs of the study: reliability, E[#failures], availability, cost.
  /// Exactly smc::analyze(model(), settings()).
  smc::KpiReport kpis();

  /// Asynchronous kpis(): snapshots the model and settings as they stand,
  /// enqueues the computation on the session's embedded analysis service
  /// (serve::Session — created on first use with its own memory cache and
  /// this session's telemetry) and returns immediately. Identical concurrent
  /// submissions dedup onto one computation; all handles receive the same
  /// bit-exact report. Settings changed after submit() do not affect a
  /// pending handle.
  PendingKpis submit();

private:
  fmt::FaultMaintenanceTree model_;
  smc::AnalysisSettings settings_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  /// The embedded analysis service backing submit(). Created lazily (it owns
  /// a dispatcher thread); declared last so it drains before the sink it
  /// borrows is destroyed.
  std::unique_ptr<serve::Session> service_;
};

}  // namespace fmtree
