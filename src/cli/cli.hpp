// The `fmtree` command-line tool: analyse fault-maintenance-tree models in
// the .fmt text format without writing C++.
//
// Two tables in cli.cpp drive it: one row per command (name, positional
// arguments, summary, handler) and one row per flag (value, the commands
// that honour it, help, a setter that checks the value). A command accepts
// only the flags whose row names it, and `fmtree` with no arguments prints
// both tables (usage()).
//
// Split into a library so argument parsing and command execution are unit
// testable; main() is a thin wrapper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "smc/run_control.hpp"

namespace fmtree::cli {

enum class Command {
  Check,
  Analyze,
  Exact,
  Dot,
  CutSets,
  Compare,
  Sweep,
  Fleet,
  LintPolicy,
  Serve,
  Count,  ///< the number of commands, not a command
};

/// Stable process exit codes (documented in DESIGN.md, "Failure semantics").
enum ExitCode : int {
  kExitOk = 0,             ///< success
  kExitTruncated = 1,      ///< success over a truncated (but exact) prefix
  kExitUsage = 2,          ///< bad usage, bad option values, I/O failures
  kExitDiagnostics = 3,    ///< model failed to parse / validate
  kExitResourceLimit = 4,  ///< a resource budget was exhausted
  kExitInternal = 5,       ///< unexpected internal error
};

struct Options {
  Command command = Command::Check;
  /// The positional arguments: the model file(s), the policy scripts of
  /// `lint-policy` or the socket `serve` listens on.
  std::vector<std::string> inputs;
  double horizon = 10.0;
  std::uint64_t runs = 10000;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  double confidence = 0.95;
  std::vector<double> quantiles;  ///< empty = skip quantile report
  bool json_errors = false;       ///< report failures as JSON diagnostics on stderr
  double timeout = 0.0;           ///< wall-clock budget in seconds; 0 = none
  std::uint64_t state_cap = 1u << 20;  ///< CTMC state-space cap for `exact`
  bool no_fallback = false;       ///< fail `exact` instead of falling back to SMC
  /// Telemetry exports; written after the command runs (also on a truncated
  /// run). Empty = sink disabled. A `chrome:` prefix on the trace path
  /// selects Chrome trace_event format instead of "fmtree.trace/v1".
  std::string metrics_path;
  std::string trace_path;
  bool progress = false;  ///< emit throttled progress lines on stderr while running
  /// Inspection frequencies (per time unit; 0 = no inspections) for `sweep`.
  /// Defaults to the paper's cost-curve grid.
  std::vector<double> frequencies = {0, 0.5, 1, 2, 3, 4, 6, 8, 12, 24};
  /// Set when --frequencies was given explicitly. A sweep with --policy and
  /// no explicit --frequencies evaluates only the scripted candidates.
  bool frequencies_set = false;
  /// Maintenance-policy script files (`--policy`, repeatable): each one a
  /// scripted `sweep` candidate, or the one policy of every `fleet` joint.
  std::vector<std::string> policies;
  /// On-disk result cache directory for `sweep`, `fleet` and `serve`; empty =
  /// no cache. It is also how an interrupted or crashed run resumes: the same
  /// command run again replays every finished job from it bit-identically.
  std::string cache_dir;
  /// Per-job retry budget for transient failures (SweepPlan::max_retries).
  std::uint32_t max_retries = 2;
  /// Sweep stall watchdog in seconds; 0 = off (SweepPlan::stall_timeout_s).
  double stall_timeout = 0.0;
  /// Fault-injection specs ("site:mode[,trigger]") armed for the duration of
  /// the command, on top of any FMTREE_FAULTS armings. Testing only.
  std::vector<std::string> inject_faults;
  /// `serve`: admission bound on outstanding jobs (queued + running); a
  /// request that would exceed it is rejected whole with R120.
  std::size_t queue_limit = 64;
  /// `serve`: directory model "ref"s resolve in.
  std::string model_root = "models";
  /// `sweep/fleet --connect`: run against the daemon at this socket instead
  /// of in-process; the rendered output is bit-identical either way.
  std::string connect;
  /// `sweep/fleet --emit-request`: print the canonical "fmtree.request/v1"
  /// document this invocation describes and exit without analysing.
  bool emit_request = false;
  /// `fleet`: corridor shape (fleet::CorridorSpec) — joint count, fleet seed
  /// (independent of the analysis --seed), lognormal lifetime jitter,
  /// neighbour load-coupling strength and track spacing.
  std::size_t joints = 50;
  std::uint64_t fleet_seed = 0;
  double jitter = 0.1;
  double coupling = 0.0;
  double spacing_km = 1.0;
  /// `fleet`: shared maintenance resources and the worst-k table size.
  std::uint32_t crews = 2;
  std::size_t worst_k = 5;
  /// `fleet --calibrate <csv>`: stream the incident database (O(1) memory)
  /// and print the per-mode Garwood rate table instead of analysing.
  /// Exposure = --joints assets x --observe-years.
  std::string calibrate_path;
  /// `fleet --generate-incidents <csv>`: simulate --joints assets for
  /// --observe-years under the model's own maintenance policy and stream the
  /// incident database to <csv> instead of analysing.
  std::string generate_incidents_path;
  double observe_years = 0.0;
};

/// Process-wide cooperative stop handle. run() rearms it for every command
/// (with --timeout's deadline, counted from the command's start); main()
/// wires SIGINT and SIGTERM to request_stop(). A command that runs
/// trajectories then reports exact statistics over the completed prefix
/// (exit code kExitTruncated), and `serve` drains and exits.
smc::RunControl& interrupt_control();

/// Parses argv-style arguments (excluding the program name). Throws
/// DomainError with a user-facing message on invalid usage, including a
/// flag the command does not accept.
Options parse_args(const std::vector<std::string>& args);

/// Runs a parsed command: arms --inject-fault, opens the telemetry sinks,
/// arms the stop handle, parses `model_texts` (the text of each input the
/// command reads as a model; none for lint-policy and serve) and calls the
/// command's handler. Returns the process exit code; failures throw.
int run(const Options& options, const std::vector<std::string>& model_texts,
        std::ostream& out, std::ostream& err);

/// Full entry point: parses `args`, reads the model files and runs the
/// command. Errors are reported on `err` with a non-zero return.
int main_impl(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);

/// The usage/help text, generated from the command and flag tables.
std::string usage();

}  // namespace fmtree::cli
