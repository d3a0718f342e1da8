// Fleet analysis: shard a corridor's per-joint analyses across the shared
// trajectory pool of a sweep and aggregate corridor-level KPIs.
//
// Each joint becomes one batch::SweepJob carrying its own model and the
// shared analysis settings, so a shard is bit-identical to a standalone run
// of that joint (the sweep determinism contract) and its content-addressed
// cache key depends only on (joint model, settings). Re-running a corridor
// after editing one joint therefore re-simulates exactly that joint.
//
// The aggregator composes with the .mpl policy DSL: when settings.policy is
// set, every joint runs under the scripted calendars (the same mechanism the
// sweep grid uses), the policy's crew counter bounds repairs per visit inside
// the simulation, and its budget refill rates feed the corridor
// budget-utilisation KPI.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "fleet/corridor.hpp"
#include "obs/telemetry.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::fleet {

/// The maintenance resources a corridor shares: a pool of crews, each good
/// for a bounded number of site visits per year. Render-side parameters —
/// they shape the utilisation KPI, never a simulation bit.
struct SharedResources {
  std::uint32_t crews = 2;
  /// Site visits one crew can make per year (default: one per working day).
  double visits_per_crew_year = 250.0;
};

struct FleetOptions {
  /// Every joint's settings; settings.policy is the optional scripted
  /// maintenance policy of every joint.
  smc::AnalysisSettings settings;
  SharedResources resources;
  /// How many worst joints (by expected failures/yr) to surface.
  std::size_t worst_k = 5;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  std::uint32_t max_retries = 2;
  double stall_timeout_s = 0.0;
};

/// One joint's analysed result, in corridor order.
struct JointSummary {
  std::string name;
  double scale = 1.0;
  smc::KpiReport report;
};

/// Corridor-level KPIs, all derived from per-joint reports by exact sums in
/// corridor order — so bit-identical per-joint reports imply bit-identical
/// aggregates, whatever executed the shards.
struct FleetKpis {
  std::size_t joints = 0;  ///< joints aggregated (failed shards excluded)
  double corridor_length_km = 0.0;

  double failures_per_year = 0.0;  ///< corridor total, point estimates summed
  double cost_per_year = 0.0;
  double cost_per_km_year = 0.0;

  /// Maintenance demand: inspection rounds, condition-based repairs and
  /// preventive replacements per year across the corridor.
  double inspections_per_year = 0.0;
  double repairs_per_year = 0.0;
  double replacements_per_year = 0.0;
  /// Crew site visits per year: inspection rounds (repairs ride along on the
  /// inspection visit under condition-based maintenance) plus corrective
  /// call-outs (one per system failure) plus replacement visits.
  double crew_visits_per_year = 0.0;
  double crew_capacity_per_year = 0.0;  ///< crews * visits_per_crew_year
  double crew_utilisation = 0.0;        ///< visits / capacity (0 if no capacity)

  /// Annualised budget refill of the scripted policy, corridor-wide (the
  /// policy applies per joint); 0 when no policy or no refilling budget.
  double budget_per_year = 0.0;
  double budget_utilisation = 0.0;  ///< cost_per_year / budget_per_year

  /// Indices into the summaries span of the worst-k joints by expected
  /// failures per year, worst first (ties broken by corridor order).
  std::vector<std::size_t> worst;
};

struct FleetOutcome {
  std::vector<JointSummary> joints;  ///< corridor order; failed shards keep
                                     ///< their name with a default report
  FleetKpis kpis;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t jobs_failed = 0;
  bool truncated = false;
  std::vector<Diagnostic> warnings;
};

/// The corridor as a sweep plan: one job per joint, labeled joint_name(i),
/// carrying options.settings (+ policy). Exposed so the daemon and the fleet
/// CLI expand identically.
batch::SweepPlan fleet_plan(const Corridor& corridor, const FleetOptions& options);

/// Aggregates per-joint summaries (corridor order) into FleetKpis.
FleetKpis aggregate_fleet(const Corridor& corridor,
                          std::span<const JointSummary> summaries,
                          const FleetOptions& options);

/// The inverse of fleet_plan: folds the per-joint results of a run (corridor
/// order, whichever executor produced them: run_sweep in analyze_fleet and
/// in-process `fmtree fleet`, the daemon under `fmtree fleet --connect`) and
/// the run's warnings into a FleetOutcome. Counts follow run_sweep: a miss
/// is any job the cache did not answer. Failed shards become warnings (code
/// F101) and are excluded from the aggregates; an interrupted shard marks
/// the outcome truncated. Adds the corridor's fleet.joints and
/// fleet.jobs_failed to `metrics` when it is non-null.
FleetOutcome fleet_outcome(const Corridor& corridor,
                           std::span<const batch::JobResult> results,
                           std::vector<Diagnostic> warnings, const FleetOptions& options,
                           obs::MetricsRegistry* metrics = nullptr);

/// Runs the corridor through the shared pool (run_sweep) and folds it with
/// fleet_outcome, which counts on the telemetry metrics sink.
FleetOutcome analyze_fleet(const Corridor& corridor, const FleetOptions& options,
                           batch::ResultCache* cache = nullptr,
                           const obs::Telemetry& telemetry = {});

}  // namespace fmtree::fleet
