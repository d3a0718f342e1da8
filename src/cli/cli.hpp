// The `fmtree` command-line tool: analyse fault-maintenance-tree models in
// the .fmt text format without writing C++.
//
//   fmtree check   <model.fmt>                    parse + validate + summary
//   fmtree analyze <model.fmt> [options]          KPI report (SMC)
//   fmtree exact   <model.fmt> [options]          CTMC unreliability/MTTF
//   fmtree dot     <model.fmt>                    Graphviz of the structure
//   fmtree cutsets <model.fmt> [options]          minimal cut sets + importance
//   fmtree compare <a.fmt> <b.fmt> [options]      paired policy comparison
//   fmtree sweep   <model.fmt> [options]          inspection-frequency cost curve
//   fmtree fleet   <model.fmt> [options]          N-joint corridor KPIs
//   fmtree lint-policy <script.mpl>...            compile policy scripts, report L1xx
//   fmtree serve   <socket> [options]             analysis daemon (fmtree.request/v1)
//
// Options: --horizon <years>  --runs <n>  --seed <n>  --threads <n>
//          --confidence <p>
//          --quantiles <p1,p2,...>  --timeout <s>
//          --state-cap <n>    --no-fallback  --json-errors
//          --metrics <file>   --trace <file|chrome:file>  --progress
//          --frequencies <f1,f2,...>  --policy <script.mpl>
//          --cache-dir <dir>
//          --max-retries <n>  --stall-timeout <s>
//          --connect <socket>  --emit-request            (sweep/fleet as a client)
//          --joints <n>  --fleet-seed <n>  --jitter <x>  --coupling <x>
//          --spacing-km <x>  --crews <n>  --worst <n>              (fleet)
//          --calibrate <csv>  --generate-incidents <csv>
//          --observe-years <t>                       (fleet incident data)
//          --queue-limit <n>   --model-root <dir>        (serve)
//          --inject-fault <site:spec>  (repeatable; testing only)
//
// Split into a library so argument parsing and command execution are unit
// testable; main() is a thin wrapper.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
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
  std::string model_path;
  std::string model_path_b;  ///< second model (compare only)
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
  bool progress = false;  ///< emit throttled progress lines while running
  /// Destination for --progress lines; nullptr = std::cerr. main_impl points
  /// it at its `err` stream so tests capture the output.
  std::ostream* progress_stream = nullptr;
  /// Inspection frequencies (per time unit; 0 = no inspections) for `sweep`.
  /// Defaults to the paper's cost-curve grid.
  std::vector<double> frequencies = {0, 0.5, 1, 2, 3, 4, 6, 8, 12, 24};
  /// Set when --frequencies was given explicitly. A sweep with --policy and
  /// no explicit --frequencies evaluates only the scripted candidates.
  bool frequencies_set = false;
  /// Maintenance-policy script files: `sweep --policy <file>` (repeatable,
  /// each compiled into one scripted sweep candidate) and the positional
  /// script list of `lint-policy`.
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
  /// `serve`: the local socket to listen on (the positional argument).
  std::string socket_path;
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

/// Process-wide cooperative stop handle. Long-running commands (analyze)
/// poll it between trajectories; main() wires SIGINT to request_stop(), so
/// an interrupted run still reports exact statistics over the completed
/// trajectory prefix (exit code kExitTruncated).
smc::RunControl& interrupt_control();

/// Parses argv-style arguments (excluding the program name). Throws
/// DomainError with a user-facing message on invalid usage.
Options parse_args(const std::vector<std::string>& args);

/// Executes a command on a model given as text (already read from the
/// file). Returns a process exit code. Not valid for Command::Compare.
int run_on_text(const Options& options, const std::string& model_text,
                std::ostream& out);

/// Executes the paired comparison (common random numbers) of two models.
int run_compare(const Options& options, const std::string& model_a_text,
                const std::string& model_b_text, std::ostream& out);

/// Full entry point: reads the model file and dispatches. Errors are
/// reported on `err` with a non-zero return.
int main_impl(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);

/// The usage/help text.
std::string usage();

}  // namespace fmtree::cli
