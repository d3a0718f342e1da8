// The three workloads and the per-layer probe of the end-to-end benchmark.
//
// Untraced runs fill Result::metrics with the end-to-end metrics every
// workload reports under the same names (BENCHMARK.json "end_to_end"):
//
//   setup_s      median of repeated set-ups (everything before the first
//                timed operation)
//   peak_rss_mb  peak resident memory of the process (added by main)
//   main_ms      median latency of the workload's repeated operation
//   heavy_ms     median wall time of its heaviest (simulating) operation
//
// and print the per-flow names (analyze_s, curve_s, cold_s, replay_ms,
// warm_p50_ms, ...) as extra lines. Traced runs fill Result::metrics with the
// per-layer metrics ("per_layer").
#pragma once

#include <map>
#include <string>

#include "harness.hpp"

namespace e2e {

/// Paths the benchmark reads, relative to the repository root (the cwd).
inline constexpr const char* kEiJointModel = "models/ei_joint.fmt";
inline constexpr const char* kCompressorModel = "models/compressor.fmt";
inline constexpr const char* kModelRoot = "models";
inline constexpr const char* kPeriodicPolicy = "examples/policies/periodic.mpl";

/// Pool widths: 4 for the closed-loop studies, 2 for the daemon so cold
/// requests leave room for the client and connection threads.
inline constexpr unsigned kStudyWidth = 4;
inline constexpr unsigned kCorridorWidth = 4;
inline constexpr unsigned kServedWidth = 2;

/// Unit costs of single library calls, measured on seeded inputs in every
/// traced run (probe_layers adds them to the result as per-layer metrics);
/// the workloads combine them with their own call counts.
struct LayerProbe {
  std::map<std::string, double> unit;  ///< per-layer metric name -> value
  double at(const std::string& name) const { return unit.at(name); }
};

LayerProbe probe_layers(const Options& options, ScratchDir& scratch, unsigned pool_width,
                        Result& result);

Result run_study_cold(const Options& options, ScratchDir& scratch, const LayerProbe* probe);
Result run_corridor_replay(const Options& options, ScratchDir& scratch,
                           const LayerProbe* probe);
Result run_served_mix(const Options& options, ScratchDir& scratch, const LayerProbe* probe);

/// Shared traced-run epilogue: prints per-layer self times (per traced
/// operation) and adds trace.overhead_pct (traced against untraced wall
/// time of the workload's operation). Returns the share of the traced
/// operations' wall time not covered by any library-call span, in percent.
double report_trace(const SpanLog& log, const Samples& traced_op_s,
                    const Samples& untraced_op_s, Result& result);

}  // namespace e2e
