// fmtree::RunSettings — the execution knobs every analysis backend shares.
//
// Before this header existed, seed / threads / horizon / RunControl were
// re-declared (with identical meaning) on smc::AnalysisSettings,
// sim::SimOptions and analytic::SolverOptions, and each new cross-cutting
// concern (interruption in PR 2, telemetry in PR 3) had to be threaded
// through all three. The shared fields now live here exactly once, and the
// per-backend settings structs *embed* RunSettings as a base subobject:
//
//   smc::AnalysisSettings : fmtree::RunSettings   (adds trajectories, CI, ...)
//   sim::SimOptions       : fmtree::RunSettings   (adds failure log, discounting)
//   analytic::SolverOptions : fmtree::RunSettings (adds tolerance, iterations)
//
// Field access through the old locations (settings.seed, opts.horizon, ...)
// compiles unchanged — the base subobject is transparent — so existing
// callers keep working; only positional/designated aggregate initialization
// of the derived structs needed updating. One RunSettings can be assigned
// across layers in a single statement:
//
//   static_cast<fmtree::RunSettings&>(sim_opts) = analysis_settings;
//
// Not every backend consumes every field (the trajectory kernel ignores
// seed/threads — stream identity comes from the (seed, index) pair it is
// handed; the linear solvers ignore horizon/seed/threads). Each consumer
// documents what it honors.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/telemetry.hpp"

namespace fmtree::smc {
class RunControl;
}  // namespace fmtree::smc

namespace fmtree::lang {
struct CompiledPolicy;
}  // namespace fmtree::lang

namespace fmtree {

/// Shared execution settings, embedded by every per-backend options struct.
struct RunSettings {
  /// Analysis time horizon in the model's time unit (the study: years).
  double horizon = 10.0;
  /// Base RNG seed; trajectory i draws from CounterStream(seed, i).
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Optional scripted maintenance policy (compiled from the policy DSL,
  /// see src/lang). When set, analysis runs replace the model's built-in
  /// inspection modules with the script's calendars and the kernel invokes
  /// the compiled rules at every inspection event. The compiled form's
  /// fingerprint — not the script text — enters the settings fingerprint,
  /// so reformatting a script preserves cache keys while any semantic
  /// change (thresholds, calendars, budgets) invalidates them, and a
  /// scripted run never shares a cache entry with a built-in one.
  std::shared_ptr<const lang::CompiledPolicy> policy;
  /// Optional cooperative stop handle (SIGINT, deadlines, budgets);
  /// nullptr = run to completion. See smc/run_control.hpp.
  const smc::RunControl* control = nullptr;
  /// Optional telemetry sinks (metrics, tracing, progress); disabled by
  /// default. Telemetry is observational: enabling it changes no analysis
  /// output bit. See obs/telemetry.hpp and DESIGN.md, "Observability".
  obs::Telemetry telemetry;
};

}  // namespace fmtree
