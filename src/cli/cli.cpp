#include "cli/cli.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>

#include "analytic/fmt2ctmc.hpp"
#include "analytic/solvers.hpp"
#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "data/generator.hpp"
#include "data/stream.hpp"
#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "ft/cutsets.hpp"
#include "ft/dot.hpp"
#include "ft/bdd.hpp"
#include "ft/importance.hpp"
#include "lang/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "smc/compare.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/table.hpp"
#include "util/text_file.hpp"

namespace fmtree::cli {

smc::RunControl& interrupt_control() {
  static smc::RunControl control;
  return control;
}

namespace {

double parse_double(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    throw DomainError("invalid " + what + ": '" + text + "'");
  }
  if (used != text.size()) throw DomainError("invalid " + what + ": '" + text + "'");
  return value;
}

std::uint64_t parse_count(const std::string& text, const std::string& what) {
  const double v = parse_double(text, what);
  if (v < 0 || v != std::floor(v))
    throw DomainError(what + " must be a nonnegative integer");
  return static_cast<std::uint64_t>(v);
}

std::vector<double> parse_quantiles(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const double q = parse_double(item, "quantile");
    if (!(q >= 0 && q <= 1)) throw DomainError("quantiles must lie in [0,1]");
    out.push_back(q);
  }
  if (out.empty()) throw DomainError("empty quantile list");
  return out;
}

std::vector<double> parse_frequencies(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const double f = parse_double(item, "frequency");
    if (!(f >= 0) || !std::isfinite(f))
      throw DomainError("frequencies must be finite and >= 0");
    out.push_back(f);
  }
  if (out.empty()) throw DomainError("empty frequency list");
  return out;
}

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  if (args.empty()) throw DomainError("missing command\n" + usage());
  Options opt;
  const std::string& cmd = args[0];
  if (cmd == "check") opt.command = Command::Check;
  else if (cmd == "analyze") opt.command = Command::Analyze;
  else if (cmd == "exact") opt.command = Command::Exact;
  else if (cmd == "dot") opt.command = Command::Dot;
  else if (cmd == "cutsets") opt.command = Command::CutSets;
  else if (cmd == "compare") opt.command = Command::Compare;
  else if (cmd == "sweep") opt.command = Command::Sweep;
  else if (cmd == "fleet") opt.command = Command::Fleet;
  else if (cmd == "lint-policy") opt.command = Command::LintPolicy;
  else if (cmd == "serve") opt.command = Command::Serve;
  else throw DomainError("unknown command '" + cmd + "'\n" + usage());

  // Flags and positional model paths may interleave in any order.
  std::vector<std::string> positional;
  for (std::size_t i = 1; i < args.size();) {
    const std::string& flag = args[i++];
    if (!flag.starts_with("--")) {
      positional.push_back(flag);
      continue;
    }
    auto value = [&]() -> const std::string& {
      if (i >= args.size()) throw DomainError("flag " + flag + " needs a value");
      return args[i++];
    };
    if (flag == "--horizon") opt.horizon = parse_double(value(), "horizon");
    else if (flag == "--runs") opt.runs = parse_count(value(), "runs");
    else if (flag == "--seed") opt.seed = parse_count(value(), "seed");
    else if (flag == "--threads")
      opt.threads = static_cast<unsigned>(parse_count(value(), "threads"));
    else if (flag == "--confidence") opt.confidence = parse_double(value(), "confidence");
    else if (flag == "--quantiles") opt.quantiles = parse_quantiles(value());
    else if (flag == "--timeout") opt.timeout = parse_double(value(), "timeout");
    else if (flag == "--state-cap") opt.state_cap = parse_count(value(), "state cap");
    else if (flag == "--json-errors") opt.json_errors = true;
    else if (flag == "--no-fallback") opt.no_fallback = true;
    else if (flag == "--metrics") opt.metrics_path = value();
    else if (flag == "--trace") opt.trace_path = value();
    else if (flag == "--progress") opt.progress = true;
    else if (flag == "--frequencies") {
      opt.frequencies = parse_frequencies(value());
      opt.frequencies_set = true;
    }
    else if (flag == "--policy") opt.policies.push_back(value());
    else if (flag == "--cache-dir") opt.cache_dir = value();
    else if (flag == "--max-retries")
      opt.max_retries = static_cast<std::uint32_t>(parse_count(value(), "retries"));
    else if (flag == "--stall-timeout")
      opt.stall_timeout = parse_double(value(), "stall timeout");
    else if (flag == "--inject-fault") {
      const std::string& spec = value();
      fault::parse_fault_spec(spec);  // validate now: usage error, not runtime
      opt.inject_faults.push_back(spec);
    }
    else if (flag == "--queue-limit") {
      opt.queue_limit = static_cast<std::size_t>(parse_count(value(), "queue limit"));
      if (opt.queue_limit == 0) throw DomainError("--queue-limit must be positive");
    }
    else if (flag == "--model-root") opt.model_root = value();
    else if (flag == "--connect") opt.connect = value();
    else if (flag == "--emit-request") opt.emit_request = true;
    else if (flag == "--joints") {
      opt.joints = static_cast<std::size_t>(parse_count(value(), "joints"));
      if (opt.joints == 0) throw DomainError("--joints must be positive");
    }
    else if (flag == "--fleet-seed") opt.fleet_seed = parse_count(value(), "fleet seed");
    else if (flag == "--jitter") opt.jitter = parse_double(value(), "jitter");
    else if (flag == "--coupling") opt.coupling = parse_double(value(), "coupling");
    else if (flag == "--spacing-km")
      opt.spacing_km = parse_double(value(), "spacing");
    else if (flag == "--crews")
      opt.crews = static_cast<std::uint32_t>(parse_count(value(), "crews"));
    else if (flag == "--worst")
      opt.worst_k = static_cast<std::size_t>(parse_count(value(), "worst count"));
    else if (flag == "--calibrate") opt.calibrate_path = value();
    else if (flag == "--generate-incidents") opt.generate_incidents_path = value();
    else if (flag == "--observe-years")
      opt.observe_years = parse_double(value(), "observation window");
    else throw DomainError("unknown flag '" + flag + "'\n" + usage());
  }
  if (opt.command == Command::LintPolicy) {
    // lint-policy takes one or more script files, not a model.
    if (positional.empty())
      throw DomainError("lint-policy needs at least one policy script\n" + usage());
    for (std::string& path : positional) opt.policies.push_back(std::move(path));
  } else {
    const std::size_t want = opt.command == Command::Compare ? 2u : 1u;
    if (positional.empty()) {
      throw DomainError(std::string(opt.command == Command::Serve
                                        ? "missing socket path"
                                        : "missing model file") +
                        "\n" + usage());
    }
    if (positional.size() < want)
      throw DomainError("compare needs two model files\n" + usage());
    if (positional.size() > want)
      throw DomainError("unexpected argument '" + positional[want] + "'\n" + usage());
    if (opt.command == Command::Serve) {
      opt.socket_path = positional[0];
    } else {
      opt.model_path = positional[0];
    }
    if (opt.command == Command::Compare) opt.model_path_b = positional[1];
  }
  if (opt.command != Command::Sweep && opt.command != Command::Fleet &&
      (!opt.connect.empty() || opt.emit_request))
    throw DomainError("--connect / --emit-request only apply to sweep and fleet");
  if (!opt.policies.empty() && opt.command != Command::Sweep &&
      opt.command != Command::Fleet && opt.command != Command::LintPolicy)
    throw DomainError("--policy only applies to sweep and fleet");
  if (opt.command == Command::Fleet && opt.policies.size() > 1)
    throw DomainError(
        "fleet accepts at most one --policy (the script applies to every "
        "joint)");
  if (opt.command == Command::Fleet) {
    if (!(opt.jitter >= 0) || !std::isfinite(opt.jitter))
      throw DomainError("--jitter must be finite and >= 0");
    if (!(opt.coupling >= 0) || !std::isfinite(opt.coupling))
      throw DomainError("--coupling must be finite and >= 0");
    if (!(opt.spacing_km > 0) || !std::isfinite(opt.spacing_km))
      throw DomainError("--spacing-km must be positive and finite");
    if (!opt.calibrate_path.empty() && !opt.generate_incidents_path.empty())
      throw DomainError("--calibrate and --generate-incidents are exclusive");
    if ((!opt.calibrate_path.empty() || !opt.generate_incidents_path.empty()) &&
        !(opt.observe_years > 0 && std::isfinite(opt.observe_years)))
      throw DomainError(
          "--calibrate / --generate-incidents need a finite --observe-years > 0");
  } else if (!opt.calibrate_path.empty() || !opt.generate_incidents_path.empty()) {
    throw DomainError("--calibrate / --generate-incidents only apply to fleet");
  }
  if (!(opt.horizon > 0 && std::isfinite(opt.horizon)))
    throw DomainError("--horizon must be positive and finite");
  if (opt.runs == 0) throw DomainError("--runs must be positive");
  if (!(opt.confidence > 0 && opt.confidence < 1))
    throw DomainError("--confidence must lie in (0,1)");
  if (!(opt.timeout >= 0)) throw DomainError("--timeout must be nonnegative");
  if (opt.state_cap == 0) throw DomainError("--state-cap must be positive");
  if (!(opt.stall_timeout >= 0))
    throw DomainError("--stall-timeout must be nonnegative");
  return opt;
}

namespace {

std::string ci(const ConfidenceInterval& c, int decimals) {
  return cell(c.point, decimals) + " [" + cell(c.lo, decimals) + ", " +
         cell(c.hi, decimals) + "]";
}

/// One progress line, throttled by the reporter. Quantities that do not
/// apply to the current phase (ETA before a rate exists, CI before two
/// batches, residual outside solve) are simply omitted.
void print_progress(std::ostream& out, const obs::Progress& p) {
  out << "progress: " << p.phase << " " << p.done;
  if (p.total > 0) {
    out << "/" << p.total << " ("
        << static_cast<int>(100.0 * static_cast<double>(p.done) /
                            static_cast<double>(p.total))
        << "%)";
  }
  if (p.rate > 0) out << "  " << cell(p.rate, 0) << "/s";
  if (p.eta_seconds >= 0) out << "  ETA " << cell(p.eta_seconds, 1) << "s";
  if (p.ci_half_width >= 0) {
    out << "  rel.CI " << cell(p.ci_half_width, 4);
    if (p.ci_target > 0) out << " (target " << cell(p.ci_target, 4) << ")";
  }
  if (p.residual >= 0) out << "  residual " << cell(p.residual, 10);
  out << "\n" << std::flush;
}

/// The telemetry sinks of one CLI invocation, created from the --metrics /
/// --trace / --progress flags. Commands run with handles() wired into their
/// settings; write_files() exports afterwards — also for a truncated run,
/// whose telemetry is exactly what one wants to inspect.
struct TelemetrySession {
  explicit TelemetrySession(const Options& opt) : opt_(opt) {
    if (!opt.metrics_path.empty()) metrics_ = std::make_unique<obs::MetricsRegistry>();
    if (!opt.trace_path.empty()) tracer_ = std::make_unique<obs::Tracer>();
    if (opt.progress) {
      std::ostream* sink =
          opt.progress_stream != nullptr ? opt.progress_stream : &std::cerr;
      progress_ = std::make_unique<obs::ProgressReporter>(
          [sink](const obs::Progress& p) { print_progress(*sink, p); },
          /*min_interval_seconds=*/1.0);
    }
  }

  obs::Telemetry handles() const noexcept {
    return {metrics_.get(), tracer_.get(), progress_.get()};
  }

  obs::Tracer* tracer() const noexcept { return tracer_.get(); }

  void write_files() const {
    if (metrics_) write(opt_.metrics_path, metrics_->to_json());
    if (tracer_) {
      constexpr std::string_view kChrome = "chrome:";
      if (opt_.trace_path.starts_with(kChrome)) {
        write(opt_.trace_path.substr(kChrome.size()), tracer_->to_chrome_trace());
      } else {
        write(opt_.trace_path, tracer_->to_json());
      }
    }
  }

private:
  static void write(const std::string& path, const std::string& content) {
    std::ofstream file(path);
    file << content << "\n";
    if (!file) throw IoError("cannot write '" + path + "'");
  }

  const Options& opt_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::ProgressReporter> progress_;
};

int cmd_check(const fmt::FaultMaintenanceTree& model, std::ostream& out) {
  out << "model OK\n"
      << "  top event:           " << model.name(model.top()) << "\n"
      << "  leaves:              " << model.num_ebes() << "\n"
      << "  gates:               " << model.structure().gates().size() << "\n"
      << "  rate dependencies:   " << model.rdeps().size() << "\n"
      << "  functional deps:     " << model.fdeps().size() << "\n"
      << "  inspection modules:  " << model.inspections().size() << "\n"
      << "  replacement modules: " << model.replacements().size() << "\n"
      << "  corrective:          " << (model.corrective().enabled ? "on" : "off") << "\n"
      << "  markovian (exact analysable): " << (model.is_markovian() ? "yes" : "no")
      << "\n";
  return 0;
}

int cmd_analyze(const Options& opt, const fmt::FaultMaintenanceTree& model,
                std::ostream& out, obs::Telemetry telemetry) {
  smc::AnalysisSettings s;
  s.horizon = opt.horizon;
  s.trajectories = opt.runs;
  s.seed = opt.seed;
  s.threads = opt.threads;
  s.confidence = opt.confidence;
  s.telemetry = telemetry;
  // The process-wide handle lets a SIGINT (wired up in main()) or --timeout
  // stop the run between trajectories; the report then covers the completed
  // prefix exactly. reset() clears state left by a previous run in-process.
  smc::RunControl& control = interrupt_control();
  control.reset();
  if (opt.timeout > 0) control.set_timeout(opt.timeout);
  s.control = &control;
  const smc::KpiReport k = smc::analyze(model, s);
  out << "KPIs over " << opt.horizon << " time units (" << k.trajectories
      << " runs, " << opt.confidence * 100 << "% CIs):\n";
  TextTable t({"KPI", "value"});
  t.add_row({"reliability", ci(k.reliability, 5)});
  t.add_row({"expected failures", ci(k.expected_failures, 4)});
  t.add_row({"failures / time unit", ci(k.failures_per_year, 5)});
  t.add_row({"availability", ci(k.availability, 6)});
  t.add_row({"total cost", ci(k.total_cost, 1)});
  t.add_row({"cost / time unit", ci(k.cost_per_year, 2)});
  t.print(out);

  out << "\ncost breakdown (per time unit):\n";
  const fmt::CostBreakdown py = k.mean_cost / opt.horizon;
  TextTable c({"component", "value"});
  c.add_row({"inspections", cell(py.inspection, 2)});
  c.add_row({"repairs", cell(py.repair, 2)});
  c.add_row({"replacements", cell(py.replacement, 2)});
  c.add_row({"corrective", cell(py.corrective, 2)});
  c.add_row({"downtime", cell(py.downtime, 2)});
  c.print(out);

  out << "\nfailure attribution (expected failures per run):\n";
  TextTable a({"leaf", "failures", "repairs"});
  for (std::size_t i = 0; i < model.num_ebes(); ++i)
    a.add_row({model.ebes()[i].name, cell(k.failures_per_leaf[i], 4),
               cell(k.repairs_per_leaf[i], 3)});
  a.print(out);

  // A truncated run already consumed the stop signal; launching the quantile
  // batch would just stop again before its first trajectory, so skip it.
  if (!opt.quantiles.empty() && !k.truncated) {
    const smc::FailureQuantiles q =
        smc::failure_time_quantiles(model, opt.quantiles, s);
    out << "\ntime-to-failure quantiles:\n";
    TextTable qt({"p", "t"});
    for (std::size_t i = 0; i < q.values.size(); ++i)
      qt.add_row({cell(opt.quantiles[i], 3),
                  std::isinf(q.values[i]) ? "> horizon" : cell(q.values[i], 3)});
    qt.print(out);
    if (q.stop_reason != smc::StopReason::None) {
      out << "\nNOTE: quantile pass truncated (" << smc::stop_reason_name(q.stop_reason)
          << ") after " << q.trajectories << " of " << opt.runs
          << " trajectories; quantiles are exact over that prefix.\n";
      return kExitTruncated;
    }
  }
  if (k.truncated) {
    out << "\nNOTE: run truncated (" << smc::stop_reason_name(k.stop_reason)
        << ") after " << k.trajectories << " of " << opt.runs
        << " trajectories; statistics are exact over that prefix.\n";
    return kExitTruncated;
  }
  return kExitOk;
}

int cmd_exact(const Options& opt, const fmt::FaultMaintenanceTree& model,
              std::ostream& out, obs::Telemetry telemetry) {
  try {
    // Compute everything before printing so a state-cap overflow on any of
    // the three queries yields a clean fallback instead of a partial report.
    const double unrel =
        analytic::exact_unreliability(model, opt.horizon, opt.state_cap);
    analytic::SolverOptions solver;
    solver.telemetry = telemetry;
    const double mttf = analytic::exact_mttf(model, opt.state_cap, solver);
    const bool renewal = model.corrective().enabled && model.corrective().delay == 0.0;
    const double failures =
        renewal ? analytic::exact_expected_failures(model, opt.horizon, opt.state_cap)
                : 0.0;
    out << "exact CTMC analysis (uniformization):\n";
    out << "  P(failure within " << opt.horizon << ") = " << cell(unrel, 8) << "\n";
    out << "  MTTF = " << cell(mttf, 6) << "\n";
    if (renewal) {
      out << "  E[#failures within " << opt.horizon << "] = " << cell(failures, 6)
          << "\n";
    }
    return kExitOk;
  } catch (const ResourceLimitError& e) {
    if (opt.no_fallback) throw;
    out << "exact analysis hit a resource limit (" << e.what()
        << ");\nfalling back to Monte-Carlo estimation:\n\n";
    return cmd_analyze(opt, model, out, telemetry);
  }
}

/// The canonical description of a sweep invocation: the same document
/// `--emit-request` prints, the socket client sends, and the daemon parses.
/// Policy script files are inlined into the request, so the daemon needs no
/// access to the client's filesystem.
serve::Request sweep_request(const Options& opt, const std::string& model_text) {
  serve::Request request;
  request.model_text = model_text;
  request.settings.horizon = opt.horizon;
  request.settings.trajectories = opt.runs;
  request.settings.seed = opt.seed;
  request.settings.confidence = opt.confidence;
  // With --policy and no explicit --frequencies the sweep evaluates only the
  // scripted candidates (the default grid would drown them in noise).
  if (opt.policies.empty() || opt.frequencies_set)
    request.frequencies = opt.frequencies;
  for (const std::string& path : opt.policies) {
    serve::Request::PolicyScript script;
    script.text = read_text_file(path);
    request.scripts.push_back(std::move(script));
  }
  request.has_policy = true;
  return request;
}

/// Renders a served/in-process sweep Response exactly as the classic
/// run_sweep-based CLI did, and returns the process exit code. The cache
/// summary line appears only for a local run with --cache-dir (a client has
/// no visibility into the daemon's cache totals beyond the per-job source).
int render_sweep_response(const Options& opt, const serve::Response& o,
                          bool show_cache_line, std::ostream& out) {
  out << "inspection-frequency cost curve over " << opt.horizon << " time units ("
      << opt.runs << " runs each, " << opt.confidence * 100 << "% CIs):\n";
  TextTable t({"policy", "cost / time unit", "failures / time unit", "source"});
  std::size_t best = o.jobs.size();
  for (std::size_t i = 0; i < o.jobs.size(); ++i) {
    const batch::JobResult& r = o.jobs[i];
    if (r.failed) {
      t.add_row({r.label, "(failed: " + r.failure.kind + ")", "", ""});
      continue;
    }
    if (r.cancelled) {
      t.add_row({r.label, "(cancelled)", "", ""});
      continue;
    }
    if (!r.completed) {
      t.add_row({r.label, "(interrupted)", "", ""});
      continue;
    }
    t.add_row({r.label, ci(r.report.cost_per_year, 2), ci(r.report.failures_per_year, 5),
               r.cache_hit ? "cache" : "simulated"});
    if (best == o.jobs.size() ||
        r.report.cost_per_year.point < o.jobs[best].report.cost_per_year.point)
      best = i;
  }
  t.print(out);
  if (best < o.jobs.size()) {
    out << "\ncost-optimal policy: " << o.jobs[best].label << " at "
        << cell(o.jobs[best].report.cost_per_year.point, 2) << " / time unit\n";
  }
  if (show_cache_line) {
    std::uint64_t hits = 0;
    for (const batch::JobResult& r : o.jobs) hits += r.cache_hit ? 1 : 0;
    out << "cache: " << hits << " hits, " << o.jobs.size() - hits << " misses ("
        << opt.cache_dir << ")\n";
  }
  std::uint64_t retries = 0;
  for (const batch::JobResult& r : o.jobs) retries += r.retries;
  if (retries > 0)
    out << "self-healing: " << retries << " retr" << (retries == 1 ? "y" : "ies")
        << " recovered transient failures\n";
  for (const Diagnostic& d : o.warnings)
    out << "fmtree: " << format_diagnostic(d) << "\n";
  const std::uint64_t jobs_failed = o.count(batch::JobState::Failed);
  if (jobs_failed > 0) {
    out << "\nNOTE: " << jobs_failed << " job(s) failed permanently:\n";
    for (const batch::JobResult& r : o.jobs)
      if (r.failed)
        out << "  " << r.label << " [" << r.failure.kind << ", "
            << r.failure.attempts << " attempt(s)]: " << r.failure.message
            << "\n";
  }
  if (o.count(batch::JobState::Interrupted) > 0) {
    out << "\nNOTE: sweep truncated (" << smc::stop_reason_name(o.stop_reason)
        << "); interrupted policies carry no results.\n";
    return kExitTruncated;
  }
  return jobs_failed > 0 ? kExitTruncated : kExitOk;
}

/// The service configuration of one invocation (`serve`, and the
/// in-process runs of `sweep` and `fleet`).
serve::SessionConfig session_config(const Options& opt, obs::Telemetry telemetry) {
  serve::SessionConfig config;
  config.threads = opt.threads;
  config.queue_limit = opt.queue_limit;
  config.cache_dir = opt.cache_dir;
  config.model_root = opt.model_root;
  config.max_retries = opt.max_retries;
  config.stall_timeout_s = opt.stall_timeout;
  config.telemetry = telemetry;
  return config;
}

/// `--connect`: runs the request on the daemon, forwarding its progress.
serve::Response run_connected(const Options& opt, const serve::Request& request,
                              obs::Telemetry telemetry) {
  serve::ClientEvents events;
  if (telemetry.progress != nullptr) {
    events.progress = [progress = telemetry.progress](const obs::Progress& p) {
      progress->update(p);
    };
  }
  return serve::request_over_socket(opt.connect, request, events);
}

/// Runs prepared jobs in-process: the daemon's service entry points, minus
/// the socket. The Session (not run_sweep) because its dedup inside one
/// request runs identical jobs once. SIGINT and --timeout reach the jobs
/// through the wait loop, whose drain stops them at a trajectory boundary.
serve::Response run_in_process(const Options& opt, std::vector<batch::SweepJob> jobs,
                               obs::Telemetry telemetry) {
  smc::RunControl& control = interrupt_control();
  control.reset();
  if (opt.timeout > 0) control.set_timeout(opt.timeout);
  serve::SessionConfig config = session_config(opt, telemetry);
  config.queue_limit = std::max(config.queue_limit, jobs.size());
  serve::Session session(std::move(config));
  serve::Ticket ticket = session.submit_jobs(std::move(jobs));
  while (!ticket.wait_for(0.05)) {
    if (control.should_stop(0) != smc::StopReason::None) {
      session.drain();
      break;
    }
  }
  serve::Response response = ticket.take();
  // The drain path reports Interrupted; the control knows the precise reason
  // (deadline vs signal), so prefer it.
  const smc::StopReason local_reason = control.should_stop(0);
  if (response.stop_reason != smc::StopReason::None &&
      local_reason != smc::StopReason::None)
    response.stop_reason = local_reason;
  return response;
}

int cmd_sweep(const Options& opt, const fmt::FaultMaintenanceTree& model,
              const std::string& model_text, std::ostream& out,
              obs::Telemetry telemetry) {
  const serve::Request request = sweep_request(opt, model_text);
  const bool wants_inspections = [&] {
    for (double f : request.frequencies)
      if (f > 0) return true;
    return false;
  }();
  if (wants_inspections && model.inspections().empty())
    throw DomainError("model has no inspection modules to sweep");
  if (opt.emit_request) {
    out << serve::encode_request(request);
    return kExitOk;
  }

  if (!opt.connect.empty()) {
    return render_sweep_response(opt, run_connected(opt, request, telemetry),
                                 /*show_cache_line=*/false, out);
  }

  serve::PreparedRequest prepared = serve::prepare(request, opt.model_root);
  return render_sweep_response(opt,
                               run_in_process(opt, std::move(prepared.jobs), telemetry),
                               /*show_cache_line=*/!opt.cache_dir.empty(), out);
}

/// The canonical description of a fleet invocation, mirroring sweep_request:
/// corridor spec + settings, plus at most one inlined policy script.
serve::Request fleet_request(const Options& opt, const std::string& model_text) {
  serve::Request request;
  request.model_text = model_text;
  request.settings.horizon = opt.horizon;
  request.settings.trajectories = opt.runs;
  request.settings.seed = opt.seed;
  request.settings.confidence = opt.confidence;
  request.has_fleet = true;
  request.fleet.joints = static_cast<std::uint32_t>(opt.joints);
  request.fleet.seed = opt.fleet_seed;
  request.fleet.jitter = opt.jitter;
  request.fleet.coupling = opt.coupling;
  for (const std::string& path : opt.policies) {
    serve::Request::PolicyScript script;
    script.text = read_text_file(path);
    request.scripts.push_back(std::move(script));
    request.has_policy = true;
  }
  return request;
}

fleet::CorridorSpec fleet_spec(const Options& opt) {
  fleet::CorridorSpec spec;
  spec.joints = opt.joints;
  spec.seed = opt.fleet_seed;
  spec.jitter = opt.jitter;
  spec.coupling = opt.coupling;
  spec.spacing_km = opt.spacing_km;
  return spec;
}

int render_fleet(const Options& opt, const fleet::Corridor& corridor,
                 const fleet::FleetOutcome& o, bool show_cache_line,
                 std::ostream& out) {
  const fleet::FleetKpis& k = o.kpis;
  out << "corridor: " << corridor.joints.size() << " joints over "
      << cell(corridor.length_km(), 1) << " km (jitter " << corridor.spec.jitter
      << ", coupling " << corridor.spec.coupling << ", fleet seed "
      << corridor.spec.seed << ")\n";
  out << "fleet KPIs over " << opt.horizon << " time units (" << opt.runs
      << " runs per joint, " << k.joints << "/" << corridor.joints.size()
      << " joints analysed):\n";
  out << "  failures:     " << cell(k.failures_per_year, 4) << " / time unit\n";
  out << "  cost:         " << cell(k.cost_per_year, 2) << " / time unit ("
      << cell(k.cost_per_km_year, 2) << " per km)\n";
  out << "  crew demand:  " << cell(k.crew_visits_per_year, 1) << " visits vs "
      << cell(k.crew_capacity_per_year, 1) << " capacity (" << opt.crews
      << " crews) = " << cell(100.0 * k.crew_utilisation, 1)
      << "% utilisation\n";
  if (k.budget_per_year > 0)
    out << "  budget:       " << cell(k.cost_per_year, 2) << " spent of "
        << cell(k.budget_per_year, 2) << " / time unit = "
        << cell(100.0 * k.budget_utilisation, 1) << "% utilisation\n";
  if (!k.worst.empty()) {
    out << "\nworst " << k.worst.size() << " joints by expected failures:\n";
    TextTable t({"joint", "lifetime scale", "failures / time unit",
                 "cost / time unit"});
    for (std::size_t i : k.worst) {
      const fleet::JointSummary& j = o.joints[i];
      t.add_row({j.name, cell(j.scale, 3), ci(j.report.failures_per_year, 5),
                 ci(j.report.cost_per_year, 2)});
    }
    t.print(out);
  }
  if (show_cache_line)
    out << "cache: " << o.cache_hits << " hits, " << o.cache_misses
        << " misses (" << opt.cache_dir << ")\n";
  for (const Diagnostic& d : o.warnings)
    out << "fmtree: " << format_diagnostic(d) << "\n";
  if (o.jobs_failed > 0)
    out << "\nNOTE: " << o.jobs_failed
        << " joint(s) failed permanently and are excluded from the corridor "
           "aggregates.\n";
  if (o.truncated) {
    out << "\nNOTE: fleet analysis truncated; aggregates cover the completed "
           "joints only.\n";
    return kExitTruncated;
  }
  return o.jobs_failed > 0 ? kExitTruncated : kExitOk;
}

/// `fleet --calibrate <csv>`: one streaming pass over the incident database
/// (O(1) memory however many records), then the per-mode Garwood rate table.
int cmd_fleet_calibrate(const Options& opt, std::ostream& out) {
  const data::IncidentScan scan = data::scan_incidents(opt.calibrate_path);
  out << "incident scan: " << scan.records << " records, "
      << scan.counts_by_mode.size() << " failure mode(s) (streamed from '"
      << opt.calibrate_path << "')\n";
  const std::vector<data::ModeRate> rates = data::estimate_mode_rates(
      scan, static_cast<std::uint32_t>(opt.joints), opt.observe_years,
      opt.confidence);
  out << "per-mode failure rates over " << opt.joints << " joints x "
      << opt.observe_years << " time units (" << opt.confidence * 100
      << "% CIs):\n";
  TextTable t({"failure mode", "events", "rate / joint-time unit", "CI"});
  for (const data::ModeRate& r : rates)
    t.add_row({r.mode, std::to_string(r.rate.events), cell(r.rate.rate, 6),
               "[" + cell(r.rate.lo, 6) + ", " + cell(r.rate.hi, 6) + "]"});
  t.print(out);
  return kExitOk;
}

/// `fleet --generate-incidents <csv>`: simulate the fleet under the model's
/// own maintenance policy and stream each incident straight to the file, so
/// memory does not grow with the fleet.
int cmd_fleet_generate(const Options& opt, const fmt::FaultMaintenanceTree& model,
                       std::ostream& out) {
  data::IncidentStreamWriter writer(opt.generate_incidents_path);
  data::generate_incidents(model, static_cast<std::uint32_t>(opt.joints),
                           opt.observe_years, opt.fleet_seed,
                           [&writer](const data::IncidentRecord& r) { writer.add(r); });
  writer.close();
  out << "generated " << writer.written() << " incident(s) from " << opt.joints
      << " joints x " << opt.observe_years << " time units into '"
      << opt.generate_incidents_path << "'\n";
  return kExitOk;
}

int cmd_fleet(const Options& opt, const fmt::FaultMaintenanceTree& model,
              const std::string& model_text, std::ostream& out,
              obs::Telemetry telemetry) {
  if (!opt.calibrate_path.empty()) return cmd_fleet_calibrate(opt, out);
  if (!opt.generate_incidents_path.empty())
    return cmd_fleet_generate(opt, model, out);

  const serve::Request request = fleet_request(opt, model_text);
  if (opt.emit_request) {
    out << serve::encode_request(request);
    return kExitOk;
  }

  // The corridor is regenerated locally in full (including the render-side
  // spacing the request schema deliberately omits); the jobs the daemon
  // expands from the request are bit-identical to the local plan's.
  const fleet::Corridor corridor = fleet::generate_corridor(model, fleet_spec(opt));
  // Render-side options only: the jobs come from the request (prepare()).
  fleet::FleetOptions options;
  options.resources.crews = opt.crews;
  options.worst_k = opt.worst_k;
  if (!request.scripts.empty()) {
    // The jobs get the compiled policy through prepare(); this copy only
    // feeds the render-side budget KPI of the aggregator.
    Diagnostics diags;
    std::optional<lang::CompiledPolicy> compiled =
        lang::compile_policy(request.scripts.front().text, diags);
    if (!compiled) throw serve::RequestError("R114", diags.all());
    options.policy =
        std::make_shared<const lang::CompiledPolicy>(*std::move(compiled));
  }

  const auto render = [&](const serve::Response& response, bool show_cache) {
    const fleet::FleetOutcome o =
        fleet::fleet_outcome(corridor, response.jobs, response.warnings, options);
    return render_fleet(opt, corridor, o, show_cache, out);
  };
  if (!opt.connect.empty())
    return render(run_connected(opt, request, telemetry), /*show_cache=*/false);
  serve::PreparedRequest prepared = serve::prepare(request, opt.model_root);
  return render(run_in_process(opt, std::move(prepared.jobs), telemetry),
                /*show_cache=*/!opt.cache_dir.empty());
}

int cmd_serve(const Options& opt, std::ostream& out, obs::Telemetry telemetry) {
  serve::Session session(session_config(opt, telemetry));

  // SIGINT/SIGTERM (wired in main()) and --timeout stop the accept loop;
  // Server::run then drains the session and joins every connection.
  smc::RunControl& control = interrupt_control();
  control.reset();
  if (opt.timeout > 0) control.set_timeout(opt.timeout);

  serve::ServerConfig server_config;
  server_config.socket_path = opt.socket_path;
  server_config.stop = &control;
  serve::Server server(session, server_config);
  out << "fmtree serve: listening on '" << opt.socket_path << "' ("
      << (opt.cache_dir.empty() ? std::string("memory cache")
                                : "cache dir " + opt.cache_dir)
      << ", queue limit " << opt.queue_limit << ")\n"
      << std::flush;
  server.run();
  out << "fmtree serve: drained, exiting\n";
  return kExitOk;
}

int cmd_dot(const fmt::FaultMaintenanceTree& model, std::ostream& out) {
  out << ft::to_dot(model.structure(), model.name(model.top()));
  return 0;
}

int cmd_cutsets(const Options& opt, const fmt::FaultMaintenanceTree& model,
                std::ostream& out) {
  const ft::FaultTree& tree = model.structure();
  const auto cuts = ft::minimal_cut_sets(tree);
  out << cuts.size() << " minimal cut sets:\n";
  for (const auto& cut : cuts) {
    out << "  {";
    for (std::size_t i = 0; i < cut.size(); ++i)
      out << (i ? ", " : " ") << tree.basic(tree.basic_events()[cut[i]]).name;
    out << " }\n";
  }
  out << "\nstatic top-event probability at t=" << opt.horizon << ": "
      << cell(ft::top_event_probability(tree, opt.horizon), 8)
      << "  (maintenance ignored)\n\nimportance measures:\n";
  TextTable t({"leaf", "P(fail)", "Birnbaum", "Fussell-Vesely", "criticality"});
  for (const ft::Importance& imp : ft::importance_measures(tree, opt.horizon))
    t.add_row({imp.name, cell(imp.probability, 4), cell(imp.birnbaum, 4),
               cell(imp.fussell_vesely, 4), cell(imp.criticality, 4)});
  t.print(out);
  return 0;
}

}  // namespace

int run_on_text(const Options& options, const std::string& model_text,
                std::ostream& out) {
  // --inject-fault armings live exactly as long as the command; sites armed
  // via FMTREE_FAULTS (registry construction) are left untouched.
  const fault::Scope fault_scope(options.inject_faults);
  const TelemetrySession session(options);
  auto parse_span = obs::maybe_span(session.tracer(), "parse");
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(model_text);
  parse_span.close();
  const auto dispatch = [&] {
    switch (options.command) {
      case Command::Check: return cmd_check(model, out);
      case Command::Analyze:
        return cmd_analyze(options, model, out, session.handles());
      case Command::Exact: return cmd_exact(options, model, out, session.handles());
      case Command::Dot: return cmd_dot(model, out);
      case Command::CutSets: return cmd_cutsets(options, model, out);
      case Command::Sweep:
        return cmd_sweep(options, model, model_text, out, session.handles());
      case Command::Fleet:
        return cmd_fleet(options, model, model_text, out, session.handles());
      case Command::Compare:
        throw DomainError("compare needs two models; use run_compare");
      case Command::LintPolicy:
        // Dispatched in main_impl (no model file); unreachable here.
        throw DomainError("lint-policy takes policy scripts, not a model");
      case Command::Serve:
        // Dispatched in main_impl (no model file); unreachable here.
        throw DomainError("serve takes a socket path, not a model");
    }
    throw DomainError("unhandled command");
  };
  const int code = dispatch();
  session.write_files();
  return code;
}

int run_compare(const Options& options, const std::string& model_a_text,
                const std::string& model_b_text, std::ostream& out) {
  const TelemetrySession session(options);
  auto parse_span = obs::maybe_span(session.tracer(), "parse");
  const fmt::FaultMaintenanceTree a = fmt::parse_fmt(model_a_text);
  const fmt::FaultMaintenanceTree b = fmt::parse_fmt(model_b_text);
  parse_span.close();
  smc::AnalysisSettings s;
  s.horizon = options.horizon;
  s.trajectories = options.runs;
  s.seed = options.seed;
  s.threads = options.threads;
  s.confidence = options.confidence;
  s.telemetry = session.handles();
  const smc::PairedComparison cmp = smc::compare_models(a, b, s);
  out << "paired comparison (common random numbers, " << cmp.trajectories
      << " runs; positive = first model higher):\n";
  TextTable t({"difference (A - B)", "estimate", "CI", "significant"});
  const auto row = [&](const char* label, const ConfidenceInterval& c) {
    t.add_row({label, cell(c.point, 4),
               "[" + cell(c.lo, 4) + ", " + cell(c.hi, 4) + "]",
               c.contains(0.0) ? "no" : "YES"});
  };
  row("failures", cmp.failures_diff);
  row("total cost", cmp.cost_diff);
  row("downtime", cmp.downtime_diff);
  t.print(out);
  session.write_files();
  return 0;
}

namespace {

/// Renders a failure on `err` — one line per diagnostic, or a JSON array
/// with --json-errors — and returns the exit code. Exceptions that carry no
/// diagnostic list are wrapped in a single synthetic diagnostic so the JSON
/// channel always has the same shape.
int report_failure(const Options& opt, std::ostream& err,
                   std::vector<Diagnostic> diags, int code) {
  if (opt.json_errors) {
    Diagnostics sink;
    for (Diagnostic& d : diags) sink.add(std::move(d));
    err << sink.to_json() << "\n";
  } else {
    for (const Diagnostic& d : diags)
      err << "fmtree: " << format_diagnostic(d) << "\n";
  }
  return code;
}

/// `fmtree lint-policy <script>...`: compile every script with the
/// error-recovery parser and report all diagnostics (text on stderr with a
/// file prefix, or one aggregated JSON array with --json-errors). Exit code
/// kExitDiagnostics when any script fails, kExitOk otherwise — so CI can
/// gate a whole corpus with a single invocation.
int cmd_lint_policy(const Options& opt, std::ostream& out, std::ostream& err) {
  Diagnostics sink;  // aggregate across files for the JSON channel
  bool any_failed = false;
  for (const std::string& path : opt.policies) {
    std::string source;
    try {
      source = read_text_file(path);
    } catch (const IoError& e) {
      any_failed = true;
      Diagnostic d = diagnostic_from(e, "U101");
      out << path << ": FAILED (unreadable)\n";
      if (opt.json_errors) sink.add(std::move(d));
      else err << path << ": " << format_diagnostic(d) << "\n";
      continue;
    }
    Diagnostics diags;
    const std::optional<lang::CompiledPolicy> compiled =
        lang::compile_policy(source, diags);
    for (const Diagnostic& d : diags.all()) {
      if (opt.json_errors) sink.add(d);
      else err << path << ":" << format_diagnostic(d) << "\n";
    }
    if (compiled.has_value()) {
      out << path << ": OK  policy '" << compiled->name << "' ("
          << compiled->calendars.size() << " calendar(s), "
          << compiled->statements.size() << " statement(s), "
          << compiled->budgets.size() << " budget(s)";
      if (diags.empty()) out << ")\n";
      else out << ", " << diags.all().size() << " warning(s))\n";
    } else {
      any_failed = true;
      out << path << ": FAILED (" << diags.error_count() << " error(s))\n";
    }
  }
  if (opt.json_errors && !sink.empty()) err << sink.to_json() << "\n";
  return any_failed ? kExitDiagnostics : kExitOk;
}

}  // namespace

int main_impl(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  Options options;
  try {
    options = parse_args(args);
  } catch (const Error& e) {
    // Usage errors precede flag parsing, so they are always plain text.
    err << "fmtree: " << e.what() << "\n";
    return kExitUsage;
  }
  try {
    if (options.command == Command::LintPolicy) {
      // No model file: the positional arguments are policy scripts.
      return cmd_lint_policy(options, out, err);
    }
    if (options.command == Command::Serve) {
      // No model file: the daemon reads models from requests / --model-root.
      const fault::Scope fault_scope(options.inject_faults);
      const TelemetrySession session(options);
      const int code = cmd_serve(options, out, session.handles());
      session.write_files();
      return code;
    }
    if (options.command == Command::Compare) {
      return run_compare(options, read_text_file(options.model_path),
                         read_text_file(options.model_path_b), out);
    }
    return run_on_text(options, read_text_file(options.model_path), out);
  } catch (const ParseErrors& e) {
    return report_failure(options, err, e.diagnostics(), kExitDiagnostics);
  } catch (const ModelErrors& e) {
    return report_failure(options, err, e.diagnostics(), kExitDiagnostics);
  } catch (const ParseError& e) {
    return report_failure(options, err, {diagnostic_from(e)}, kExitDiagnostics);
  } catch (const ModelError& e) {
    return report_failure(options, err, {diagnostic_from(e, "M104")}, kExitDiagnostics);
  } catch (const ResourceLimitError& e) {
    return report_failure(options, err, {diagnostic_from(e, "R101")},
                          kExitResourceLimit);
  } catch (const serve::AdmissionError& e) {
    // R120: the daemon's queue is full — a resource limit, not a bad request.
    return report_failure(options, err, e.diagnostics(), kExitResourceLimit);
  } catch (const serve::RequestError& e) {
    // Stable R-code -> exit-code mapping (DESIGN.md, "Failure semantics"):
    // R113 carries model diagnostics, R114 policy-script diagnostics, R122
    // is an internal server failure, everything else (R110/R111/R112/R121)
    // is bad usage/transport.
    const int code = e.code() == "R113"   ? kExitDiagnostics
                     : e.code() == "R114" ? kExitDiagnostics
                     : e.code() == "R122" ? kExitInternal
                                          : kExitUsage;
    return report_failure(options, err, e.diagnostics(), code);
  } catch (const Error& e) {
    // IoError, DomainError, UnsupportedModelError: bad input to a valid
    // command — same exit code as a usage error.
    return report_failure(options, err, {diagnostic_from(e, "U101")}, kExitUsage);
  } catch (const std::exception& e) {
    Diagnostic d;
    d.code = "X101";
    d.message = std::string("internal error: ") + e.what();
    return report_failure(options, err, {d}, kExitInternal);
  }
}

std::string usage() {
  return
      "usage: fmtree <command> <model.fmt> [options]\n"
      "commands:\n"
      "  check     parse and validate, print a model summary\n"
      "  analyze   Monte-Carlo KPI report (reliability, failures, cost, ...)\n"
      "  exact     exact CTMC results (Markovian models only)\n"
      "  dot       Graphviz of the tree structure\n"
      "  cutsets   minimal cut sets and importance measures\n"
      "  compare   paired A/B comparison of two models (common random numbers)\n"
      "  sweep     evaluate the model across inspection frequencies (cost curve)\n"
      "  fleet     corridor of N joints from one base model: per-joint shards\n"
      "            through the shared pool, corridor KPIs + crew utilisation\n"
      "  lint-policy  compile maintenance-policy scripts (fmtree lint-policy\n"
      "            <script>...), report L1xx diagnostics; exit 3 on errors\n"
      "  serve     analysis daemon on a local socket (fmtree serve <socket>);\n"
      "            speaks fmtree.request/v1 / fmtree.response/v1 NDJSON\n"
      "options:\n"
      "  --horizon <t>      analysis horizon (default 10)\n"
      "  --runs <n>         Monte-Carlo trajectories (default 10000)\n"
      "  --seed <n>         RNG seed (default 1)\n"
      "  --threads <n>      worker threads (default: all cores)\n"
      "  --confidence <p>   CI level (default 0.95)\n"
      "  --quantiles <l>    comma-separated TTF quantiles, e.g. 0.1,0.5,0.9\n"
      "  --timeout <s>      wall-clock budget in seconds; on expiry analyze\n"
      "                     reports the completed prefix (exit code 1)\n"
      "  --state-cap <n>    CTMC state-space cap for exact (default 2^20)\n"
      "  --no-fallback      fail exact on a resource limit instead of\n"
      "                     falling back to Monte-Carlo\n"
      "  --json-errors      report failures as a JSON diagnostic array\n"
      "  --metrics <file>   write run metrics as JSON (fmtree.metrics/v1)\n"
      "  --trace <file>     write phase spans as JSON (fmtree.trace/v1);\n"
      "                     chrome:<file> writes Chrome trace_event format\n"
      "  --progress         print throttled progress lines while running\n"
      "  --frequencies <l>  sweep: comma-separated inspections per time unit,\n"
      "                     0 = none (default 0,0.5,1,2,3,4,6,8,12,24)\n"
      "  --policy <file>    sweep: add a scripted maintenance-policy candidate\n"
      "                     (repeatable); without an explicit --frequencies,\n"
      "                     only the scripted candidates are evaluated\n"
      "  --cache-dir <dir>  sweep/fleet/serve: content-addressed result cache\n"
      "                     directory; running a command again (also after a\n"
      "                     crash or a stop) replays its finished jobs\n"
      "                     bit-identically and simulates only the rest\n"
      "  --max-retries <n>  sweep: retry budget per job for transient\n"
      "                     failures (default 2)\n"
      "  --stall-timeout <s> sweep: stop with a diagnostic if no progress\n"
      "                     for <s> seconds (default: off)\n"
      "  --connect <sock>   sweep/fleet: run as a client of the daemon at\n"
      "                     <sock> instead of in-process (bit-identical output)\n"
      "  --emit-request     sweep/fleet: print the fmtree.request/v1 document\n"
      "                     this invocation describes and exit\n"
      "  --joints <n>       fleet: corridor size (default 50)\n"
      "  --fleet-seed <n>   fleet: corridor generation seed, independent of\n"
      "                     the analysis --seed (default 0)\n"
      "  --jitter <x>       fleet: lognormal per-joint lifetime spread\n"
      "                     (default 0.1; 0 = identical joints)\n"
      "  --coupling <x>     fleet: neighbour load-coupling strength (default 0)\n"
      "  --spacing-km <x>   fleet: track distance between joints (default 1)\n"
      "  --crews <n>        fleet: shared maintenance crews (default 2)\n"
      "  --worst <n>        fleet: size of the worst-joints table (default 5)\n"
      "  --calibrate <csv>  fleet: stream an incident database (O(1) memory)\n"
      "                     and print per-mode Garwood rates; needs\n"
      "                     --observe-years, exposure = joints x years\n"
      "  --generate-incidents <csv>  fleet: simulate the fleet and stream an\n"
      "                     incident database to <csv>; needs --observe-years;\n"
      "                     draws from --fleet-seed (--seed is not used)\n"
      "  --observe-years <t> fleet: observation window for the two above\n"
      "  --queue-limit <n>  serve: max outstanding jobs before requests are\n"
      "                     rejected with R120 (default 64)\n"
      "  --model-root <dir> serve: directory model refs resolve in\n"
      "                     (default 'models')\n"
      "  --inject-fault <f> arm a fault site for this run (testing), e.g.\n"
      "                     cache.write:error,p=0.05,seed=7; repeatable\n"
      "exit codes: 0 ok, 1 truncated run, 2 usage/input error,\n"
      "            3 parse/validation diagnostics, 4 resource limit,\n"
      "            5 internal error\n";
}

}  // namespace fmtree::cli
