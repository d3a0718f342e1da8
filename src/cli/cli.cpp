#include "cli/cli.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "analytic/fmt2ctmc.hpp"
#include "analytic/solvers.hpp"
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
#include "maintenance/policy.hpp"
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
  TelemetrySession(const Options& opt, std::ostream& err) : opt_(opt) {
    if (!opt.metrics_path.empty()) metrics_ = std::make_unique<obs::MetricsRegistry>();
    if (!opt.trace_path.empty()) tracer_ = std::make_unique<obs::Tracer>();
    if (opt.progress) {
      progress_ = std::make_unique<obs::ProgressReporter>(
          [&err](const obs::Progress& p) { print_progress(err, p); },
          /*min_interval_seconds=*/1.0);
    }
  }

  obs::Telemetry handles() const noexcept {
    return {metrics_.get(), tracer_.get(), progress_.get()};
  }

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

/// What a command's handler gets from run(): the options, the models parsed
/// from the inputs and their text (which request documents carry), the
/// output streams, the telemetry handles and the armed stop handle.
struct Invocation {
  const Options& opt;
  const std::vector<fmt::FaultMaintenanceTree>& models;
  const std::vector<std::string>& texts;
  std::ostream& out;
  std::ostream& err;
  obs::Telemetry telemetry;
  smc::RunControl& control;
};

/// The exit code of a pass over a prefix of --runs trajectories: a NOTE
/// and kExitTruncated when `reason` cut it short.
int ending(const Invocation& in, const char* pass, smc::StopReason reason,
           std::uint64_t done, const char* results) {
  if (reason == smc::StopReason::None) return kExitOk;
  in.out << "\nNOTE: " << pass << " truncated (" << smc::stop_reason_name(reason)
         << ") after " << done << " of " << in.opt.runs << " trajectories; " << results
         << " are exact over that prefix.\n";
  return kExitTruncated;
}

int cmd_check(const Invocation& in) {
  const fmt::FaultMaintenanceTree& model = in.models[0];
  in.out << "model OK\n"
         << "  top event:           " << model.name(model.top()) << "\n"
         << "  leaves:              " << model.num_ebes() << "\n"
         << "  gates:               " << model.structure().gates().size() << "\n"
         << "  rate dependencies:   " << model.rdeps().size() << "\n"
         << "  functional deps:     " << model.fdeps().size() << "\n"
         << "  inspection modules:  " << model.inspections().size() << "\n"
         << "  replacement modules: " << model.replacements().size() << "\n"
         << "  corrective:          " << (model.corrective().enabled ? "on" : "off")
         << "\n"
         << "  markovian (exact analysable): " << (model.is_markovian() ? "yes" : "no")
         << "\n";
  return kExitOk;
}

/// The settings of the Monte-Carlo commands. The stop handle lets a SIGINT
/// or --timeout stop the run between trajectories; the report then covers
/// the completed prefix exactly.
smc::AnalysisSettings analysis_settings(const Invocation& in) {
  smc::AnalysisSettings s;
  s.horizon = in.opt.horizon;
  s.trajectories = in.opt.runs;
  s.seed = in.opt.seed;
  s.threads = in.opt.threads;
  s.confidence = in.opt.confidence;
  s.telemetry = in.telemetry;
  s.control = &in.control;
  return s;
}

int cmd_analyze(const Invocation& in) {
  const Options& opt = in.opt;
  const fmt::FaultMaintenanceTree& model = in.models[0];
  std::ostream& out = in.out;
  const smc::AnalysisSettings s = analysis_settings(in);
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
    return ending(in, "quantile pass", q.stop_reason, q.trajectories, "quantiles");
  }
  return ending(in, "run", k.stop_reason, k.trajectories, "statistics");
}

int cmd_exact(const Invocation& in) {
  const Options& opt = in.opt;
  const fmt::FaultMaintenanceTree& model = in.models[0];
  std::ostream& out = in.out;
  try {
    // Compute everything before printing so a state-cap overflow on any of
    // the three queries yields a clean fallback instead of a partial report.
    const double unrel = analytic::exact_unreliability(model, opt.horizon,
                                                       opt.state_cap, &in.control);
    analytic::SolverOptions solver;
    solver.telemetry = in.telemetry;
    solver.control = &in.control;
    const double mttf = analytic::exact_mttf(model, opt.state_cap, solver);
    const bool renewal = model.corrective().enabled && model.corrective().delay == 0.0;
    const double failures = renewal ? analytic::exact_expected_failures(
                                          model, opt.horizon, opt.state_cap, &in.control)
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
    // A stop (SIGINT, --timeout) leaves no number and skips the fallback.
    if (const smc::StopReason r = in.control.should_stop(0); r != smc::StopReason::None) {
      out << "NOTE: exact analysis stopped (" << smc::stop_reason_name(r)
          << ") before a result.\n";
      return kExitTruncated;
    }
    if (opt.no_fallback) throw;
    out << "exact analysis hit a resource limit (" << e.what()
        << ");\nfalling back to Monte-Carlo estimation:\n\n";
    return cmd_analyze(in);
  }
}

int cmd_compare(const Invocation& in) {
  const smc::PairedComparison cmp =
      smc::compare_models(in.models[0], in.models[1], analysis_settings(in));
  in.out << "paired comparison (common random numbers, " << cmp.trajectories
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
  t.print(in.out);
  return ending(in, "run", cmp.stop_reason, cmp.trajectories, "statistics");
}

/// The canonical description of a sweep or fleet invocation, which each
/// command completes: the document `--emit-request` prints, the socket
/// client sends and the daemon parses. Policy script files are inlined, so
/// the daemon needs no access to the client's filesystem.
serve::Request describe(const Invocation& in) {
  serve::Request request;
  request.model_text = in.texts[0];
  request.settings.horizon = in.opt.horizon;
  request.settings.trajectories = in.opt.runs;
  request.settings.seed = in.opt.seed;
  request.settings.confidence = in.opt.confidence;
  for (const std::string& path : in.opt.policies)
    request.scripts.emplace_back().text = read_text_file(path);
  request.has_policy = !request.scripts.empty();
  return request;
}

/// Runs the request on the daemon at --connect, forwarding its progress,
/// or in-process: prepare()'s jobs through run_sweep, with the plan and the
/// cache built from the flags. Both paths decide every result bit in
/// prepare() and run_sweep; a stop carries the stop handle's own reason. A
/// client stopped before the daemon answered prints a NOTE and has nothing.
std::optional<serve::Response> respond(const Invocation& in,
                                       const serve::Request& request) {
  const Options& opt = in.opt;
  if (!opt.connect.empty()) {
    serve::ClientEvents events;
    if (obs::ProgressReporter* progress = in.telemetry.progress)
      events.progress = [progress](const obs::Progress& p) { progress->update(p); };
    serve::Response response =
        serve::request_over_socket(opt.connect, request, events, &in.control);
    if (!response.jobs.empty() || response.stop_reason == smc::StopReason::None)
      return response;
    in.out << "NOTE: stopped (" << smc::stop_reason_name(response.stop_reason)
           << ") before the daemon at " << opt.connect << " answered; no results.\n";
    return std::nullopt;
  }
  batch::SweepPlan plan;
  plan.jobs = serve::prepare(request, opt.model_root).jobs;
  plan.threads = opt.threads;
  plan.control = &in.control;
  plan.max_retries = opt.max_retries;
  plan.stall_timeout_s = opt.stall_timeout;
  std::optional<batch::ResultCache> cache;
  if (!opt.cache_dir.empty()) cache.emplace(opt.cache_dir);
  batch::SweepOutcome outcome =
      batch::run_sweep(plan, cache ? &*cache : nullptr, in.telemetry);
  serve::Response response;
  response.jobs = std::move(outcome.results);
  response.warnings = std::move(outcome.warnings);
  response.stop_reason = outcome.stop_reason;
  return response;
}

/// Whether to print the cache summary line: only for a local run with
/// --cache-dir (a client has no visibility into the daemon's cache totals
/// beyond the per-job source).
bool shows_cache_line(const Options& opt) {
  return opt.connect.empty() && !opt.cache_dir.empty();
}

/// Renders a served or in-process sweep Response as the cost-curve table,
/// and returns the process exit code.
int render_sweep(const Invocation& in, const serve::Response& o) {
  const Options& opt = in.opt;
  std::ostream& out = in.out;
  out << "inspection-frequency cost curve over " << opt.horizon << " time units ("
      << opt.runs << " runs each, " << opt.confidence * 100 << "% CIs):\n";
  TextTable t({"policy", "cost / time unit", "failures / time unit", "source"});
  for (const batch::JobResult& r : o.jobs) {
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
  }
  t.print(out);
  if (const std::size_t best = maintenance::cheapest(o.jobs); best < o.jobs.size()) {
    out << "\ncost-optimal policy: " << o.jobs[best].label << " at "
        << cell(o.jobs[best].report.cost_per_year.point, 2) << " / time unit\n";
  }
  if (shows_cache_line(opt)) {
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

int cmd_sweep(const Invocation& in) {
  const Options& opt = in.opt;
  serve::Request request = describe(in);
  request.has_policy = true;
  // With --policy and no explicit --frequencies the sweep evaluates only the
  // scripted candidates (the default grid would drown them in noise).
  if (opt.policies.empty() || opt.frequencies_set)
    request.frequencies = opt.frequencies;
  if (std::ranges::any_of(request.frequencies, [](double f) { return f > 0; }) &&
      in.models[0].inspections().empty())
    throw DomainError("model has no inspection modules to sweep");
  if (opt.emit_request) {
    in.out << serve::encode_request(request);
    return kExitOk;
  }
  const std::optional<serve::Response> response = respond(in, request);
  return response ? render_sweep(in, *response) : kExitTruncated;
}

int render_fleet(const Invocation& in, const fleet::Corridor& corridor,
                 const fleet::FleetOutcome& o) {
  const Options& opt = in.opt;
  std::ostream& out = in.out;
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
  if (shows_cache_line(opt))
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
int cmd_fleet_calibrate(const Invocation& in) {
  const Options& opt = in.opt;
  std::ostream& out = in.out;
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
/// memory does not grow with the fleet. A stop leaves the incidents of a
/// prefix of whole joints.
int cmd_fleet_generate(const Invocation& in) {
  const Options& opt = in.opt;
  data::IncidentStreamWriter writer(opt.generate_incidents_path);
  const std::uint32_t joints = data::generate_incidents(
      in.models[0], static_cast<std::uint32_t>(opt.joints), opt.observe_years,
      opt.fleet_seed, [&writer](const data::IncidentRecord& r) { writer.add(r); },
      &in.control);
  writer.close();
  in.out << "generated " << writer.written() << " incident(s) from " << joints
         << " joints x " << opt.observe_years << " time units into '"
         << opt.generate_incidents_path << "'\n";
  if (joints == opt.joints) return kExitOk;
  in.out << "\nNOTE: incident generation truncated ("
         << smc::stop_reason_name(in.control.should_stop(0)) << ") after " << joints
         << " of " << opt.joints << " joints; the file holds their incidents.\n";
  return kExitTruncated;
}

int cmd_fleet(const Invocation& in) {
  const Options& opt = in.opt;
  if (!opt.calibrate_path.empty()) return cmd_fleet_calibrate(in);
  if (!opt.generate_incidents_path.empty()) return cmd_fleet_generate(in);

  serve::Request request = describe(in);
  request.has_fleet = true;
  request.fleet.joints = static_cast<std::uint32_t>(opt.joints);
  request.fleet.seed = opt.fleet_seed;
  request.fleet.jitter = opt.jitter;
  request.fleet.coupling = opt.coupling;
  if (opt.emit_request) {
    in.out << serve::encode_request(request);
    return kExitOk;
  }

  // The corridor is regenerated locally in full (including the render-side
  // spacing the request schema deliberately omits); the jobs the daemon
  // expands from the request are bit-identical to the local plan's.
  const fleet::Corridor corridor = fleet::generate_corridor(
      in.models[0], {.joints = opt.joints, .seed = opt.fleet_seed, .jitter = opt.jitter,
                     .coupling = opt.coupling, .spacing_km = opt.spacing_km,
                     .overrides = {}});
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
    options.settings.policy =
        std::make_shared<const lang::CompiledPolicy>(*std::move(compiled));
  }
  const std::optional<serve::Response> response = respond(in, request);
  if (!response) return kExitTruncated;
  return render_fleet(in, corridor,
                      fleet::fleet_outcome(corridor, response->jobs, response->warnings,
                                           options, in.telemetry.metrics));
}

/// `fmtree lint-policy <script>...`: compile every script with the
/// error-recovery parser and report all diagnostics (text on stderr with a
/// file prefix, or one aggregated JSON array with --json-errors). Exit code
/// kExitDiagnostics when any script fails, kExitOk otherwise — so CI can
/// gate a whole corpus with a single invocation.
int cmd_lint_policy(const Invocation& in) {
  const Options& opt = in.opt;
  std::ostream& out = in.out;
  std::ostream& err = in.err;
  Diagnostics sink;  // aggregate across files for the JSON channel
  bool any_failed = false;
  for (const std::string& path : opt.inputs) {
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

int cmd_serve(const Invocation& in) {
  const Options& opt = in.opt;
  serve::SessionConfig config;
  config.threads = opt.threads;
  config.queue_limit = opt.queue_limit;
  config.cache_dir = opt.cache_dir;
  config.model_root = opt.model_root;
  config.max_retries = opt.max_retries;
  config.stall_timeout_s = opt.stall_timeout;
  config.telemetry = in.telemetry;
  serve::Session session(std::move(config));
  // SIGINT/SIGTERM (wired in main()) and --timeout stop the accept loop;
  // Server::run then drains the session and joins every connection.
  serve::ServerConfig server_config;
  server_config.socket_path = opt.inputs[0];
  server_config.stop = &in.control;
  serve::Server server(session, server_config);
  in.out << "fmtree serve: listening on '" << opt.inputs[0] << "' ("
         << (opt.cache_dir.empty() ? std::string("memory cache")
                                   : "cache dir " + opt.cache_dir)
         << ", queue limit " << opt.queue_limit << ")\n"
         << std::flush;
  server.run();
  in.out << "fmtree serve: drained, exiting\n";
  return kExitOk;
}

int cmd_dot(const Invocation& in) {
  const fmt::FaultMaintenanceTree& model = in.models[0];
  in.out << ft::to_dot(model.structure(), model.name(model.top()));
  return kExitOk;
}

int cmd_cutsets(const Invocation& in) {
  std::ostream& out = in.out;
  const ft::FaultTree& tree = in.models[0].structure();
  const auto cuts = ft::minimal_cut_sets(tree);
  out << cuts.size() << " minimal cut sets:\n";
  for (const auto& cut : cuts) {
    out << "  {";
    for (std::size_t i = 0; i < cut.size(); ++i)
      out << (i ? ", " : " ") << tree.basic(tree.basic_events()[cut[i]]).name;
    out << " }\n";
  }
  out << "\nstatic top-event probability at t=" << in.opt.horizon << ": "
      << cell(ft::top_event_probability(tree, in.opt.horizon), 8)
      << "  (maintenance ignored)\n\nimportance measures:\n";
  TextTable t({"leaf", "P(fail)", "Birnbaum", "Fussell-Vesely", "criticality"});
  for (const ft::Importance& imp : ft::importance_measures(tree, in.opt.horizon))
    t.add_row({imp.name, cell(imp.probability, 4), cell(imp.birnbaum, 4),
               cell(imp.fussell_vesely, 4), cell(imp.criticality, 4)});
  t.print(out);
  return kExitOk;
}

// ---- The command table ------------------------------------------------------

struct CommandRow {
  Command command;
  std::string_view name;
  std::string_view args;  ///< as usage() shows them; "..." = one or more
  std::size_t inputs;     ///< positional arguments (the least, with "...")
  bool models;            ///< the inputs are model files, read before run()
  std::string_view summary;
  int (*handler)(const Invocation&);
};

using enum Command;

constexpr CommandRow kCommands[] = {
    {Check, "check", "<model.fmt>", 1, true, "parse and validate, print a model summary",
     cmd_check},
    {Analyze, "analyze", "<model.fmt>", 1, true,
     "Monte-Carlo KPI report (reliability, failures, cost, ...)", cmd_analyze},
    {Exact, "exact", "<model.fmt>", 1, true,
     "exact CTMC results (Markovian models only)", cmd_exact},
    {Dot, "dot", "<model.fmt>", 1, true, "Graphviz of the tree structure", cmd_dot},
    {CutSets, "cutsets", "<model.fmt>", 1, true,
     "minimal cut sets and importance measures", cmd_cutsets},
    {Compare, "compare", "<a.fmt> <b.fmt>", 2, true,
     "paired A/B comparison of two models (common random numbers)", cmd_compare},
    {Sweep, "sweep", "<model.fmt>", 1, true,
     "evaluate the model across inspection frequencies (cost curve)", cmd_sweep},
    {Fleet, "fleet", "<model.fmt>", 1, true,
     "corridor of N joints from one base model: per-joint shards\n"
     "through the shared pool, corridor KPIs + crew utilisation",
     cmd_fleet},
    {LintPolicy, "lint-policy", "<script.mpl>...", 1, false,
     "compile maintenance-policy scripts, report L1xx diagnostics;\n"
     "exit 3 on errors",
     cmd_lint_policy},
    {Serve, "serve", "<socket>", 1, false,
     "analysis daemon on a local socket; speaks fmtree.request/v1\n"
     "and fmtree.response/v1 NDJSON",
     cmd_serve},
};
constexpr bool one_row_per_command() {
  for (std::size_t i = 0; i < std::size(kCommands); ++i)
    if (kCommands[i].command != static_cast<Command>(i)) return false;
  return std::size(kCommands) == static_cast<std::size_t>(Count);
}
static_assert(one_row_per_command(), "one kCommands row per Command, in enum order");

// ---- The flag table ---------------------------------------------------------

/// A set of commands, one bit per Command.
using Scope = unsigned;

template <class... Commands>
constexpr Scope on(Commands... commands) {
  return ((Scope{1} << static_cast<unsigned>(commands)) | ...);
}

constexpr Scope kAll = (Scope{1} << static_cast<unsigned>(Count)) - 1;
constexpr Scope kSimulating = on(Analyze, Exact, Compare, Sweep, Fleet);
constexpr Scope kService = on(Sweep, Fleet, Serve);

double parse_double(const std::string& text, std::string_view flag) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size())
    throw DomainError("invalid " + std::string(flag) + " value '" + text + "'");
  return value;
}

/// A flag's value as its setter sees it. Each parser checks the range the
/// flag allows and names the flag when it refuses a value.
struct Value {
  std::string_view flag;
  std::string text;

  /// The value as a number that `ok` accepts; `rule` completes the message
  /// "<flag> must <rule>" of one it refuses.
  double number(bool ok(double), std::string_view rule) const {
    const double v = parse_double(text, flag);
    if (!ok(v)) throw DomainError(std::string(flag) + " must " + std::string(rule));
    return v;
  }
  /// A comma-separated list of such numbers, at least one.
  std::vector<double> list(bool ok(double), std::string_view rule) const {
    std::vector<double> out;
    std::stringstream ss(text);
    for (std::string item; std::getline(ss, item, ',');)
      out.push_back(Value{flag, item}.number(ok, rule));
    if (out.empty()) throw DomainError(std::string(flag) + " needs at least one value");
    return out;
  }
  /// The value as a whole number of at least `least`.
  std::uint64_t count(std::uint64_t least = 0) const {
    const double v = parse_double(text, flag);
    if (v < 0 || v != std::floor(v))
      throw DomainError(std::string(flag) + " must be a nonnegative integer");
    if (v < static_cast<double>(least))
      throw DomainError(std::string(flag) + " must be positive");
    return static_cast<std::uint64_t>(v);
  }
};

bool finite_positive(double x) { return x > 0 && std::isfinite(x); }
bool finite_nonnegative(double x) { return x >= 0 && std::isfinite(x); }
bool nonnegative(double x) { return x >= 0; }

struct Flag {
  std::string_view name;
  std::string_view value;  ///< placeholder usage() shows; "" = a switch
  Scope commands;          ///< the commands that honour the flag
  std::string_view help;
  void (*set)(Options&, const Value&);
};

constexpr Flag kFlags[] = {
    {"--horizon", "<t>", kSimulating | on(CutSets), "analysis horizon (default 10)",
     [](Options& o, const Value& v) {
       o.horizon = v.number(finite_positive, "be positive and finite");
     }},
    {"--runs", "<n>", kSimulating, "Monte-Carlo trajectories (default 10000)",
     [](Options& o, const Value& v) { o.runs = v.count(1); }},
    {"--seed", "<n>", kSimulating, "RNG seed (default 1)",
     [](Options& o, const Value& v) { o.seed = v.count(); }},
    {"--threads", "<n>", kSimulating | on(Serve), "worker threads (default: all cores)",
     [](Options& o, const Value& v) { o.threads = static_cast<unsigned>(v.count()); }},
    {"--confidence", "<p>", kSimulating, "CI level (default 0.95)",
     [](Options& o, const Value& v) {
       o.confidence = v.number([](double p) { return p > 0 && p < 1; }, "lie in (0,1)");
     }},
    {"--quantiles", "<l>", on(Analyze, Exact),
     "comma-separated TTF quantiles, e.g. 0.1,0.5,0.9",
     [](Options& o, const Value& v) {
       o.quantiles = v.list([](double q) { return q >= 0 && q <= 1; }, "lie in [0,1]");
     }},
    {"--timeout", "<s>", kSimulating | on(Serve),
     "wall-clock budget in seconds from the command's start; on\n"
     "expiry a run reports its completed prefix (exit code 1)",
     [](Options& o, const Value& v) {
       o.timeout = v.number(nonnegative, "be nonnegative");
     }},
    {"--state-cap", "<n>", on(Exact), "CTMC state-space cap (default 2^20)",
     [](Options& o, const Value& v) { o.state_cap = v.count(1); }},
    {"--no-fallback", "", on(Exact),
     "fail on a resource limit instead of falling back to Monte-Carlo",
     [](Options& o, const Value&) { o.no_fallback = true; }},
    {"--json-errors", "", kAll, "report failures as a JSON diagnostic array",
     [](Options& o, const Value&) { o.json_errors = true; }},
    {"--metrics", "<file>", kAll & ~on(LintPolicy),
     "write run metrics as JSON (fmtree.metrics/v1)",
     [](Options& o, const Value& v) { o.metrics_path = v.text; }},
    {"--trace", "<file>", kAll & ~on(LintPolicy),
     "write phase spans as JSON (fmtree.trace/v1);\n"
     "chrome:<file> writes Chrome trace_event format",
     [](Options& o, const Value& v) { o.trace_path = v.text; }},
    {"--progress", "", on(Analyze, Exact) | kService,
     "print throttled progress lines while running",
     [](Options& o, const Value&) { o.progress = true; }},
    {"--frequencies", "<l>", on(Sweep),
     "comma-separated inspections per time unit, 0 = none\n"
     "(default 0,0.5,1,2,3,4,6,8,12,24)",
     [](Options& o, const Value& v) {
       o.frequencies = v.list(finite_nonnegative, "be finite and >= 0");
       o.frequencies_set = true;
     }},
    {"--policy", "<file>", on(Sweep, Fleet),
     "a scripted maintenance policy: a sweep candidate (repeatable;\n"
     "without --frequencies only the scripts run) or every fleet joint's",
     [](Options& o, const Value& v) { o.policies.push_back(v.text); }},
    {"--cache-dir", "<dir>", kService,
     "content-addressed result cache directory; running a command\n"
     "again (also after a crash or a stop) replays its finished jobs\n"
     "bit-identically and simulates only the rest",
     [](Options& o, const Value& v) { o.cache_dir = v.text; }},
    {"--max-retries", "<n>", kService,
     "retry budget per job for transient failures (default 2)",
     [](Options& o, const Value& v) {
       o.max_retries = static_cast<std::uint32_t>(v.count());
     }},
    {"--stall-timeout", "<s>", kService,
     "stop with a diagnostic if no progress for <s> seconds\n(default: off)",
     [](Options& o, const Value& v) {
       o.stall_timeout = v.number(nonnegative, "be nonnegative");
     }},
    {"--inject-fault", "<f>", on(Exact) | kService,
     "arm a fault site for this run (testing), e.g.\n"
     "cache.write:error,p=0.05,seed=7; repeatable",
     [](Options& o, const Value& v) {
       fault::parse_fault_spec(v.text);  // validate now: usage error, not runtime
       o.inject_faults.push_back(v.text);
     }},
    {"--queue-limit", "<n>", on(Serve),
     "max outstanding jobs before requests are rejected with R120\n(default 64)",
     [](Options& o, const Value& v) { o.queue_limit = v.count(1); }},
    {"--model-root", "<dir>", on(Serve),
     "directory model refs resolve in (default 'models')",
     [](Options& o, const Value& v) { o.model_root = v.text; }},
    {"--connect", "<sock>", on(Sweep, Fleet),
     "run as a client of the daemon at <sock> instead of in-process\n"
     "(bit-identical output)",
     [](Options& o, const Value& v) { o.connect = v.text; }},
    {"--emit-request", "", on(Sweep, Fleet),
     "print the fmtree.request/v1 document this invocation describes\nand exit",
     [](Options& o, const Value&) { o.emit_request = true; }},
    {"--joints", "<n>", on(Fleet), "corridor size (default 50)",
     [](Options& o, const Value& v) { o.joints = v.count(1); }},
    {"--fleet-seed", "<n>", on(Fleet),
     "corridor generation seed, independent of the analysis --seed\n(default 0)",
     [](Options& o, const Value& v) { o.fleet_seed = v.count(); }},
    {"--jitter", "<x>", on(Fleet),
     "lognormal per-joint lifetime spread (default 0.1; 0 = identical\njoints)",
     [](Options& o, const Value& v) {
       o.jitter = v.number(finite_nonnegative, "be finite and >= 0");
     }},
    {"--coupling", "<x>", on(Fleet), "neighbour load-coupling strength (default 0)",
     [](Options& o, const Value& v) {
       o.coupling = v.number(finite_nonnegative, "be finite and >= 0");
     }},
    {"--spacing-km", "<x>", on(Fleet), "track distance between joints (default 1)",
     [](Options& o, const Value& v) {
       o.spacing_km = v.number(finite_positive, "be positive and finite");
     }},
    {"--crews", "<n>", on(Fleet), "shared maintenance crews (default 2)",
     [](Options& o, const Value& v) { o.crews = static_cast<std::uint32_t>(v.count()); }},
    {"--worst", "<n>", on(Fleet), "size of the worst-joints table (default 5)",
     [](Options& o, const Value& v) { o.worst_k = v.count(); }},
    {"--calibrate", "<csv>", on(Fleet),
     "stream an incident database (O(1) memory) and print per-mode\n"
     "Garwood rates; exposure = joints x --observe-years",
     [](Options& o, const Value& v) { o.calibrate_path = v.text; }},
    {"--generate-incidents", "<csv>", on(Fleet),
     "simulate the fleet and stream an incident database to <csv>;\n"
     "draws from --fleet-seed (--seed is not used)",
     [](Options& o, const Value& v) { o.generate_incidents_path = v.text; }},
    {"--observe-years", "<t>", on(Fleet),
     "observation window of --calibrate and --generate-incidents",
     [](Options& o, const Value& v) {
       o.observe_years = v.number(finite_positive, "be positive and finite");
     }},
};

}  // namespace

Options parse_args(const std::vector<std::string>& args) {
  if (args.empty()) throw DomainError("missing command\n" + usage());
  const CommandRow* command = std::ranges::find(kCommands, args[0], &CommandRow::name);
  if (command == std::end(kCommands))
    throw DomainError("unknown command '" + args[0] + "'\n" + usage());
  Options opt;
  opt.command = command->command;
  // Flags and positional arguments may interleave in any order.
  for (std::size_t i = 1; i < args.size();) {
    const std::string& arg = args[i++];
    if (!arg.starts_with("--")) {
      opt.inputs.push_back(arg);
      continue;
    }
    const Flag* flag = std::ranges::find(kFlags, arg, &Flag::name);
    if (flag == std::end(kFlags))
      throw DomainError("unknown flag '" + arg + "'\n" + usage());
    if ((flag->commands & on(opt.command)) == 0)
      throw DomainError("flag " + arg + " does not apply to " +
                        std::string(command->name));
    if (!flag->value.empty() && i == args.size())
      throw DomainError("flag " + arg + " needs a value");
    flag->set(opt, {arg, flag->value.empty() ? std::string() : args[i++]});
  }
  if (opt.inputs.size() < command->inputs)
    throw DomainError(std::string(command->name) + " needs " +
                      std::string(command->args) + "\n" + usage());
  if (opt.inputs.size() > command->inputs && !command->args.ends_with("..."))
    throw DomainError("unexpected argument '" + opt.inputs[command->inputs] + "'\n" +
                      usage());
  if (opt.command == Fleet && opt.policies.size() > 1)
    throw DomainError(
        "fleet accepts at most one --policy (the script applies to every joint)");
  const bool calibrate = !opt.calibrate_path.empty();
  const bool generate = !opt.generate_incidents_path.empty();
  if (calibrate && generate)
    throw DomainError("--calibrate and --generate-incidents are exclusive");
  if ((calibrate || generate) && !(opt.observe_years > 0))
    throw DomainError(
        "--calibrate / --generate-incidents need a finite --observe-years > 0");
  return opt;
}

int run(const Options& options, const std::vector<std::string>& model_texts,
        std::ostream& out, std::ostream& err) {
  const CommandRow& command = kCommands[static_cast<std::size_t>(options.command)];
  if (model_texts.size() != (command.models ? command.inputs : 0))
    throw DomainError(std::string(command.name) + " needs " + std::string(command.args));
  // --inject-fault armings live exactly as long as the command; sites armed
  // via FMTREE_FAULTS (registry construction) are left untouched.
  const fault::Scope fault_scope(options.inject_faults);
  const TelemetrySession session(options, err);
  // reset() clears state a previous command left in the process-wide
  // handle; the --timeout budget starts here, before any work.
  smc::RunControl& control = interrupt_control();
  control.reset();
  if (options.timeout > 0) control.set_timeout(options.timeout);
  std::vector<fmt::FaultMaintenanceTree> models;
  if (!model_texts.empty()) {
    const auto parse_span = obs::maybe_span(session.handles().tracer, "parse");
    for (const std::string& text : model_texts) models.push_back(fmt::parse_fmt(text));
  }
  const int code = command.handler(
      {options, models, model_texts, out, err, session.handles(), control});
  session.write_files();
  return code;
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
    std::vector<std::string> model_texts;
    if (kCommands[static_cast<std::size_t>(options.command)].models)
      for (const std::string& path : options.inputs)
        model_texts.push_back(read_text_file(path));
    return run(options, model_texts, out, err);
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
  std::ostringstream u;
  // Help texts break lines with '\n'; continuations align with the text.
  static constexpr std::size_t kWidth = 28;
  const auto entry = [&u](std::string head, std::string_view help) {
    head.resize(std::max(head.size() + 1, kWidth), ' ');
    u << "  " << head;
    for (const char c : help) u << c << (c == '\n' ? std::string(kWidth + 2, ' ') : "");
    u << "\n";
  };
  u << "usage: fmtree <command> <inputs> [flags]\ncommands:\n";
  for (const CommandRow& c : kCommands)
    entry(std::string(c.name) + " " + std::string(c.args), c.summary);
  u << "flags, each with the commands that accept it (no other command does):\n";
  for (const Flag& f : kFlags) {
    std::string scope;
    for (const CommandRow& c : kCommands)
      if ((f.commands & on(c.command)) != 0)
        scope += (scope.empty() ? "" : " ") + std::string(c.name);
    entry(std::string(f.name) + " " + std::string(f.value),
          std::string(f.help) + "\n[" + scope + "]");
  }
  u << "exit codes: 0 ok, 1 truncated run, 2 usage/input error,\n"
       "            3 parse/validation diagnostics, 4 resource limit,\n"
       "            5 internal error\n";
  return u.str();
}

}  // namespace fmtree::cli
