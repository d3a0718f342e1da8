// Engine performance benchmark: trajectories/second and per-event cost of
// the Monte-Carlo hot path on the two case-study models, emitted as
// BENCH_engine.json so successive changes are measured against a tracked
// baseline (run via bench/run_perf.sh).
//
// Models: models/ei_joint.fmt and models/compressor.fmt at horizon 10, and
// ei_joint_24 — the EI-joint inspected 24 times a year at horizon 20, the
// costliest point of the paper's cost curve (claim C4). Most of its rounds
// find nothing to repair, and the kernel books those in its fast-forward
// loop; they still count as events, so its batch_ns_per_event falls by
// construction and batch_traj_per_sec is the figure to compare.
//
// Configurations per model, all at a fixed seed:
//  * batch     — the trajectory kernel (sim::BatchExecutor, Philox counter
//                streams) called directly on one thread;
//  * parallel  — smc::analyze, i.e. the kernel on the trajectory pool with
//                the KPI fold, at hardware concurrency (FMTREE_BENCH_THREADS
//                overrides). On a single-core host the run is recorded but
//                flagged parallel_measured=false: a 1-thread run is not a
//                parallel measurement and must not be compared as one;
//  * telemetry — the parallel configuration re-run with all three obs sinks
//                attached (metrics + tracer + throttled progress), to measure
//                the observability overhead and re-check that telemetry
//                changes no report bit.
//
// Before timing, the first 200 kernel trajectories are compared bit for bit
// with sim::Reference, the naive oracle simulator (bitwise_equivalent): the
// speed must come from doing the same work faster, not different work. The
// kernel's per-trajectory bits must also be independent of how the range is
// split into runs (batch_lane_invariant).
//
// Trajectory counts scale with FMTREE_BENCH_TRAJECTORIES; --smoke runs a
// tiny count (the ctest perf smoke target) so the harness cannot bit-rot.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hpp"
#include "bench/common.hpp"
#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "sim/batch_executor.hpp"
#include "sim/reference.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace {

using namespace fmtree;

constexpr std::uint64_t kSeed = 20160628;

std::string read_model_file(const std::string& name) {
  for (const std::string& prefix : {std::string("models/"), std::string("../models/"),
                                    std::string(FMTREE_SOURCE_DIR "/models/")}) {
    std::ifstream f(prefix + name);
    if (f) {
      std::ostringstream text;
      text << f.rdbuf();
      return text.str();
    }
  }
  throw IoError("cannot locate models/" + name);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct ModelReport {
  std::string name;
  std::uint64_t trajectories = 0;
  double horizon = 0.0;
  double batch_traj_per_sec = 0.0;
  double batch_events_per_trajectory = 0.0;
  double batch_ns_per_event = 0.0;
  double parallel_traj_per_sec = 0.0;
  unsigned parallel_threads = 0;
  bool parallel_measured = false;  ///< false = 1 worker, not a parallel figure
  double telemetry_traj_per_sec = 0.0;
  double telemetry_overhead_pct = 0.0;  ///< parallel slowdown with sinks attached
  bool equivalent = false;            ///< kernel and reference agree bit-for-bit
  bool batch_lane_invariant = false;  ///< kernel bits stable across run splits
  bool telemetry_equivalent = false;  ///< telemetry run reproduces every report bit
};

bool bitwise_equal(const sim::TrajectoryResult& a, const sim::TrajectoryResult& b) {
  return a.failures == b.failures && a.first_failure_time == b.first_failure_time &&
         a.downtime == b.downtime && a.cost.total() == b.cost.total() &&
         a.discounted_cost.total() == b.discounted_cost.total() &&
         a.inspections == b.inspections && a.repairs == b.repairs &&
         a.replacements == b.replacements && a.events == b.events &&
         a.repairs_per_leaf == b.repairs_per_leaf &&
         a.failures_per_leaf == b.failures_per_leaf;
}

/// The kernel's results for trajectories [first, first + n).
std::vector<sim::TrajectoryResult> kernel_results(const sim::BatchExecutor& kernel,
                                                  std::uint64_t first, std::uint64_t n,
                                                  const sim::SimOptions& opts) {
  std::vector<sim::TrajectoryResult> out(n);
  sim::BatchWorkspace ws;
  for (std::uint64_t i = 0; i < n; ++i) kernel.run(kSeed, first + i, opts, ws, out[i]);
  return out;
}

ModelReport bench_model(const std::string& name, const fmt::FaultMaintenanceTree& model,
                        double horizon, std::uint64_t n) {
  const sim::BatchExecutor kernel(model);

  ModelReport rep;
  rep.name = name;
  rep.trajectories = n;
  rep.horizon = horizon;

  sim::SimOptions opts;
  opts.horizon = horizon;

  // Cross-check before any timing: the kernel against the reference oracle.
  {
    const sim::Reference reference(model);
    const std::uint64_t check = std::min<std::uint64_t>(n, 200);
    const std::vector<sim::TrajectoryResult> fast =
        kernel_results(kernel, 0, check, opts);
    rep.equivalent = true;
    for (std::uint64_t i = 0; i < check; ++i)
      rep.equivalent =
          rep.equivalent && bitwise_equal(fast[i], reference.run(kSeed, i, opts));
  }

  // The kernel on one thread, called directly.
  {
    sim::BatchWorkspace ws;
    sim::TrajectoryResult r;
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
      kernel.run(kSeed, i, opts, ws, r);
      events += r.events;
    }
    const double sec = seconds_since(t0);
    rep.batch_traj_per_sec = static_cast<double>(n) / sec;
    rep.batch_events_per_trajectory =
        static_cast<double>(events) / static_cast<double>(n);
    rep.batch_ns_per_event = events > 0 ? sec * 1e9 / static_cast<double>(events) : 0.0;
  }

  // Counter-stream determinism: trajectory i's bits may depend only on
  // (seed, i), never on how the range was split into runs.
  {
    const std::uint64_t n_check = std::min<std::uint64_t>(n, 2048);
    const std::vector<sim::TrajectoryResult> whole =
        kernel_results(kernel, 0, n_check, opts);
    rep.batch_lane_invariant = true;
    for (std::uint64_t first = 0; first < n_check; first += 5) {  // odd splits
      const std::uint64_t run = std::min<std::uint64_t>(5, n_check - first);
      const std::vector<sim::TrajectoryResult> split =
          kernel_results(kernel, first, run, opts);
      for (std::uint64_t k = 0; k < run; ++k)
        if (!bitwise_equal(whole[first + k], split[k]))
          rep.batch_lane_invariant = false;
    }
  }

  // The kernel on the pool through smc::analyze, at hardware concurrency
  // (or FMTREE_BENCH_THREADS). A 1-worker run is recorded but flagged as
  // not a parallel measurement.
  unsigned requested_threads = 0;
  if (const char* env = std::getenv("FMTREE_BENCH_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0) requested_threads = static_cast<unsigned>(v);
  }
  smc::AnalysisSettings settings;
  settings.horizon = horizon;
  settings.trajectories = n;
  settings.seed = kSeed;
  settings.threads = requested_threads != 0
                         ? requested_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  rep.parallel_threads = settings.threads;
  rep.parallel_measured = settings.threads > 1;
  smc::KpiReport plain;
  {
    const auto t0 = std::chrono::steady_clock::now();
    plain = smc::analyze(model, settings);
    rep.parallel_traj_per_sec = static_cast<double>(n) / seconds_since(t0);
  }

  // Same parallel run with every telemetry sink attached: the observability
  // overhead, and a re-check that telemetry changes no report bit.
  {
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    obs::ProgressReporter progress([](const obs::Progress&) {}, 0.25);
    smc::AnalysisSettings instrumented = settings;
    instrumented.telemetry = {
        .metrics = &metrics, .tracer = &tracer, .progress = &progress};
    const auto t0 = std::chrono::steady_clock::now();
    const smc::KpiReport traced = smc::analyze(model, instrumented);
    rep.telemetry_traj_per_sec = static_cast<double>(n) / seconds_since(t0);
    rep.telemetry_overhead_pct =
        (1.0 - rep.telemetry_traj_per_sec / rep.parallel_traj_per_sec) * 100.0;
    rep.telemetry_equivalent =
        batch::report_content_hash(plain) == batch::report_content_hash(traced) &&
        metrics.counter_value("smc.trajectories") == n;
  }
  return rep;
}

void write_json(std::ostream& os, const std::vector<ModelReport>& reports) {
  os << "{\n  \"benchmark\": \"engine\",\n  \"seed\": " << kSeed
     << ",\n  \"models\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ModelReport& r = reports[i];
    os << "    {\n"
       << "      \"model\": \"" << r.name << "\",\n"
       << "      \"trajectories\": " << r.trajectories << ",\n"
       << "      \"horizon\": " << r.horizon << ",\n"
       << "      \"batch_traj_per_sec\": " << r.batch_traj_per_sec << ",\n"
       << "      \"batch_events_per_trajectory\": " << r.batch_events_per_trajectory
       << ",\n"
       << "      \"batch_ns_per_event\": " << r.batch_ns_per_event << ",\n"
       << "      \"parallel_traj_per_sec\": " << r.parallel_traj_per_sec << ",\n"
       << "      \"parallel_threads\": " << r.parallel_threads << ",\n"
       << "      \"parallel_measured\": " << (r.parallel_measured ? "true" : "false")
       << ",\n"
       << "      \"telemetry_traj_per_sec\": " << r.telemetry_traj_per_sec << ",\n"
       << "      \"telemetry_overhead_pct\": " << r.telemetry_overhead_pct << ",\n"
       << "      \"bitwise_equivalent\": " << (r.equivalent ? "true" : "false") << ",\n"
       << "      \"batch_lane_invariant\": "
       << (r.batch_lane_invariant ? "true" : "false") << ",\n"
       << "      \"telemetry_bitwise_equivalent\": "
       << (r.telemetry_equivalent ? "true" : "false") << "\n"
       << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_perf_engine [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  fmtree::bench::header("M19", "Engine throughput",
                        "hot-path performance baseline (not a paper claim)");

  const std::uint64_t n = smoke ? 200 : fmtree::bench::trajectories(100000);
  std::vector<ModelReport> reports;
  for (const char* name : {"ei_joint", "compressor"})
    reports.push_back(bench_model(
        name, fmt::parse_fmt(read_model_file(std::string(name) + ".fmt")), 10.0, n));
  reports.push_back(bench_model(
      "ei_joint_24",
      eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                              eijoint::inspections_per_year(24)),
      20.0, n));

  bool ok = true;
  for (const ModelReport& r : reports) {
    std::cout << r.name << ": kernel " << static_cast<std::uint64_t>(r.batch_traj_per_sec)
              << " traj/s (" << r.batch_ns_per_event << " ns/ev, "
              << r.batch_events_per_trajectory << " ev/traj), parallel "
              << static_cast<std::uint64_t>(r.parallel_traj_per_sec) << " traj/s ("
              << r.parallel_threads << " threads"
              << (r.parallel_measured ? "" : "; 1 worker — NOT a parallel figure")
              << "), telemetry " << static_cast<std::uint64_t>(r.telemetry_traj_per_sec)
              << " traj/s (" << r.telemetry_overhead_pct << "% overhead), "
              << (r.equivalent && r.telemetry_equivalent ? "bitwise-equivalent"
                                                         : "RESULTS DIVERGED")
              << ", "
              << (r.batch_lane_invariant ? "split-invariant"
                                         : "KERNEL BITS DEPEND ON THE RUN SPLIT")
              << "\n";
    ok = ok && r.equivalent && r.telemetry_equivalent && r.batch_lane_invariant;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, reports);
  std::cout << "\nwrote " << out_path << "\n";
  std::cout << (ok ? "PASS" : "FAIL") << ": "
            << (ok ? "kernel matches the reference bit for bit, split-invariant"
                   : "an equivalence or invariance check failed")
            << "\n";
  return ok ? 0 : 1;
}
