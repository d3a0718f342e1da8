// The telemetry bundle: three optional, independently enabled sinks that
// ride in the settings of every analysis layer (smc::AnalysisSettings,
// analytic::SolverOptions, the pool, the sweep and the serve session).
//
//  * MetricsRegistry — the totals of the one metric catalogue (obs::Metric),
//    accumulated per-thread and merged at batch boundaries (obs/metrics.hpp);
//  * Tracer          — phase-scoped spans with wall/CPU timings, exportable
//    as JSON or Chrome trace_event format (obs/tracer.hpp);
//  * ProgressReporter — throttled live-progress callback (obs/progress.hpp).
//
// A null pointer disables the corresponding sink; with all three null the
// instrumented code paths reduce to a handful of pointer tests. Telemetry
// never feeds back into an analysis: enabling any sink changes no analysis
// output bit (see DESIGN.md, "Observability").
#pragma once

namespace fmtree::obs {

class MetricsRegistry;
class Tracer;
class ProgressReporter;

/// Non-owning bundle of telemetry sinks. Copyable; the referenced sinks must
/// outlive every run they are attached to.
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  ProgressReporter* progress = nullptr;

  bool enabled() const noexcept {
    return metrics != nullptr || tracer != nullptr || progress != nullptr;
  }
};

}  // namespace fmtree::obs
