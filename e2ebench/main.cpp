// fmtree_e2e — runs one workload of the end-to-end benchmark and prints its
// metrics, one per line with unit and sample count, then one JSON object as
// the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; e2ebench/run.py builds and calls this):
//   fmtree_e2e --workload study_cold|corridor_replay|served_mix
//              --seed N --seconds S --trace 0|1 [--commit SHA]
//
// Exit codes: 0 all output checks passed; 1 a check failed; 2 bad usage;
// 3 the environment would not measure the default production path.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "workloads.hpp"

namespace {

using namespace e2e;

int usage(const std::string& why) {
  std::cerr << "fmtree_e2e: " << why
            << "\nusage: fmtree_e2e --workload study_cold|corridor_replay|served_mix"
               " --seed N --seconds S --trace 0|1 [--commit SHA]\n";
  return 2;
}

/// Refuses runs that would not measure the default production path.
bool environment_ok() {
  bool ok = true;
  for (const char* var : {"FMTREE_ENGINE", "FMTREE_FAULTS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "fmtree_e2e: " << var << " is set; unset it to measure the default path\n";
      ok = false;
    }
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::cerr << "fmtree_e2e: not an optimised build (" << FMTREE_E2E_BUILD_TYPE
            << "); configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n";
  ok = false;
#endif
  return ok;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Result& r) {
  for (const std::string& line : r.notes) std::cout << line << "\n";
  auto line = [](const char* kind, const Result::Metric& m) {
    std::cout << kind << " " << m.name << " = " << json_number(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  };
  for (const Result::Metric& m : r.extras) line("info", m);
  for (const Result::Metric& m : r.metrics) line("metric", m);
  std::cout << "operations: attempted=" << r.attempted << " failed=" << r.failed << "\n";
  for (const std::string& f : r.check_failures) std::cout << "check FAILED: " << f << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": "
       << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Result::Metric& m = r.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

namespace e2e {

double report_trace(const SpanLog& log, const Samples& traced_op_s,
                    const Samples& untraced_op_s, Result& result) {
  // Self times are printed per traced operation of the workload.
  double op_total = 0.0, op_self = 0.0;
  const auto ops = static_cast<double>(std::max<std::size_t>(1, traced_op_s.size()));
  for (const auto& [layer, self] : log.self_seconds_by_layer()) {
    result.extra("self." + layer + "_ms", "ms", 1e3 * self / ops, traced_op_s.size());
    if (layer == "op") op_self = self;
  }
  for (const SpanRecord& s : log.records())
    if (s.parent < 0) op_total += s.end_s - s.start_s;
  result.metric("trace.overhead_pct", "%",
                100.0 * (traced_op_s.median() / untraced_op_s.median() - 1.0),
                traced_op_s.size() + untraced_op_s.size());
  return op_total > 0 ? 100.0 * op_self / op_total : 0.0;
}

}  // namespace e2e

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--commit") {
        options.commit = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!environment_ok()) return 3;
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  try {
    // Caches and sockets live in a per-process directory inside the
    // checkout, removed on exit. The path stays relative so the socket path
    // fits sockaddr_un however deep the checkout is.
    ScratchDir scratch(".bench_build/run-" + std::to_string(::getpid()));
    std::optional<LayerProbe> probe;
    Result probe_result;
    const unsigned width = options.workload == "served_mix" ? kServedWidth
                           : options.workload == "corridor_replay" ? kCorridorWidth
                                                                   : kStudyWidth;
    if (options.trace) probe = probe_layers(options, scratch, width, probe_result);
    const LayerProbe* p = probe ? &*probe : nullptr;
    Result result;
    if (options.workload == "study_cold") {
      result = run_study_cold(options, scratch, p);
    } else if (options.workload == "corridor_replay") {
      result = run_corridor_replay(options, scratch, p);
    } else if (options.workload == "served_mix") {
      result = run_served_mix(options, scratch, p);
    } else {
      return usage("unknown workload " + options.workload);
    }
    if (options.trace) {
      result.metrics.insert(result.metrics.begin(), probe_result.metrics.begin(),
                            probe_result.metrics.end());
      result.notes.insert(result.notes.end(), probe_result.notes.begin(),
                          probe_result.notes.end());
      result.attempted += probe_result.attempted;
      result.failed += probe_result.failed;
      result.correct = result.correct && probe_result.correct;
      result.check_failures.insert(result.check_failures.end(),
                                   probe_result.check_failures.begin(),
                                   probe_result.check_failures.end());
    } else {
      result.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
    }
    print(result);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fmtree_e2e: " << e.what() << "\n";
    return 1;
  }
}
