// The per-layer probe of the traced run: each public call a workload's flow
// makes is timed on its own, from outside, on inputs generated from the
// workload seed. Every traced run measures the same calls, so each layer's
// unit cost can be compared across commits on any workload.
#include <future>

#include "batch/fingerprint.hpp"
#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "daemon.hpp"
#include "fleet/corridor.hpp"
#include "fleet/fleet.hpp"
#include "fmt/canonical.hpp"
#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "smc/kpi.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace fmtree;

constexpr int kMicroReps = 200;
constexpr std::size_t kJoints = 1000;
constexpr std::uint64_t kKernelTrajectories = 20000;
constexpr int kDedupPairs = 5;

double span_seconds(const obs::Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const obs::SpanRecord& s : tracer.records())
    if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

/// Median over `reps` passes of the per-item cost of `fn(i)` over n items.
template <class Fn>
double per_item_seconds(int reps, std::size_t n, Fn&& fn) {
  return median_seconds(reps, [&] {
           for (std::size_t i = 0; i < n; ++i) fn(i);
         }) /
         static_cast<double>(n);
}

}  // namespace

LayerProbe probe_layers(const Options& options, ScratchDir& scratch, unsigned pool_width,
                        Result& r) {
  const std::string text = read_file(kEiJointModel);
  const std::string policy_text = read_file(kPeriodicPolicy);
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(text);

  // fmt and lang: parse and compile.
  r.metric("fmt.parse_us", "us",
           1e6 * median_seconds(kMicroReps, [&] { (void)fmt::parse_fmt(text); }), kMicroReps);
  r.metric("lang.compile_us", "us",
           1e6 * median_seconds(kMicroReps, [&] { (void)lang::compile_policy(policy_text); }),
           kMicroReps);

  // smc: the kernel at one thread, read through the program's own
  // smc.events counter and simulate/aggregate spans.
  smc::AnalysisSettings kernel;
  kernel.trajectories = kKernelTrajectories;
  kernel.threads = 1;
  kernel.seed = mix_seed(options.seed, 101);
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  kernel.telemetry.metrics = &registry;
  kernel.telemetry.tracer = &tracer;
  const smc::KpiReport report = smc::analyze(model, kernel);
  kernel.telemetry = {};
  const auto events = static_cast<double>(registry.counter_value("smc.events"));
  r.metric("smc.ns_per_event", "ns", 1e9 * span_seconds(tracer, "simulate") / events,
           kKernelTrajectories);
  r.metric("smc.events_per_traj", "count", events / kKernelTrajectories, kKernelTrajectories);
  r.metric("smc.aggregate_ms", "ms", 1e3 * span_seconds(tracer, "aggregate"), 1);
  ++r.attempted;
  const bool kernel_ok = !report.truncated && report.trajectories == kKernelTrajectories;
  r.check(kernel_ok, "probe: 1-thread analyze did not complete");
  r.failed += kernel_ok ? 0 : 1;

  // fleet: a 1000-joint corridor and its plan.
  fleet::CorridorSpec spec;
  spec.joints = kJoints;
  spec.seed = mix_seed(options.seed, 102);
  spec.jitter = 0.1;
  spec.coupling = 0.2;
  fleet::Corridor corridor;
  r.metric("fleet.generate_ms", "ms",
           1e3 * median_seconds(3, [&] { corridor = fleet::generate_corridor(model, spec); }), 3);
  fleet::FleetOptions fleet_options;
  fleet_options.settings.trajectories = 500;
  fleet_options.settings.seed = mix_seed(options.seed, 103);
  r.metric("fleet.plan_ms", "ms",
           1e3 * median_seconds(3, [&] { (void)fleet::fleet_plan(corridor, fleet_options); }), 3);
  r.metric("fmt.canonical_hash_us", "us", 1e6 * per_item_seconds(3, kJoints, [&](std::size_t i) {
             (void)fmt::canonical_hash(corridor.joints[i].model);
           }),
           3 * kJoints);
  std::vector<batch::CacheKey> keys(kJoints);
  r.metric("batch.cache_key_us", "us", 1e6 * per_item_seconds(3, kJoints, [&](std::size_t i) {
             keys[i] = batch::kpi_cache_key(corridor.joints[i].model, fleet_options.settings);
           }),
           3 * kJoints);

  // batch: the result codec and both cache tiers over 1000 disk entries.
  std::string encoded;
  r.metric("batch.encode_report_us", "us", 1e6 * median_seconds(kMicroReps, [&] {
             encoded = batch::encode_report(keys[0], report);
           }),
           kMicroReps);
  r.metric("batch.decode_report_us", "us", 1e6 * median_seconds(kMicroReps, [&] {
             (void)batch::decode_report(keys[0], encoded);
           }),
           kMicroReps);
  const std::string dir = scratch.fresh("probe-cache");
  {
    batch::ResultCache writer(dir);
    r.metric("batch.cache_put_disk_us", "us", 1e6 * per_item_seconds(1, kJoints, [&](std::size_t i) {
               writer.put(keys[i], report);
             }),
             kJoints);
  }
  r.metric("batch.cache_open_ms", "ms",
           1e3 * median_seconds(5, [&] { batch::ResultCache reopened(dir); }), 5);
  {
    const Fingerprint expected = batch::report_content_hash(report);
    batch::ResultCache reader(dir);
    std::size_t identical = 0;
    auto get_all = [&](std::size_t i) {
      const std::optional<smc::KpiReport> hit = reader.get(keys[i]);
      identical += hit && batch::report_content_hash(*hit) == expected ? 1 : 0;
    };
    r.metric("batch.cache_get_disk_us", "us", 1e6 * per_item_seconds(1, kJoints, get_all),
             kJoints);
    r.metric("batch.cache_get_mem_us", "us", 1e6 * per_item_seconds(1, kJoints, get_all),
             kJoints);
    r.attempted += 2;
    const bool cache_ok = identical == 2 * kJoints;
    r.check(cache_ok, "probe: cache reads were not bit-identical to the stored report");
    r.failed += cache_ok ? 0 : 2;
  }
  std::vector<fleet::JointSummary> summaries(kJoints);
  for (std::size_t i = 0; i < kJoints; ++i) {
    summaries[i].name = corridor.joints[i].name;
    summaries[i].report = report;
  }
  r.metric("fleet.aggregate_ms", "ms", 1e3 * median_seconds(5, [&] {
             (void)fleet::aggregate_fleet(corridor, summaries, fleet_options);
           }),
           5);

  // batch: fixed start-up cost of one sweep call at the workload's width.
  batch::SweepPlan tiny;
  tiny.threads = pool_width;
  tiny.jobs.push_back({"tiny", model, {}, nullptr});
  tiny.jobs.back().settings.trajectories = 1;
  r.metric("batch.sweep_fixed_ms", "ms",
           1e3 * median_seconds(21, [&] { (void)batch::run_sweep(tiny); }), 21);

  // serve: the in-process parts of a warm request, then the same request
  // over the socket; the difference is the transport.
  serve::SessionConfig config;
  config.threads = pool_width;
  config.cache_dir = scratch.fresh("probe-serve");
  config.model_root = kModelRoot;
  obs::MetricsRegistry serve_registry;
  config.telemetry.metrics = &serve_registry;
  Daemon daemon(config, (scratch.path() / "probe.sock").string());
  serve::Request request;
  request.model_ref = "ei_joint.fmt";
  request.settings.trajectories = 2000;
  request.settings.seed = mix_seed(options.seed, 104) >> 11;  // JSON-exact (< 2^53)
  const serve::Response first = serve::request_over_socket(daemon.socket_path(), request);
  const std::string document = serve::encode_request(request);
  const double parse_s =
      median_seconds(kMicroReps, [&] { (void)serve::parse_request(document); });
  const double prepare_s =
      median_seconds(kMicroReps, [&] { (void)serve::prepare(request, kModelRoot); });
  serve::Response warm;
  const double submit_s = median_seconds(kMicroReps, [&] {
    serve::Ticket ticket = daemon.session().submit(request);
    warm = ticket.take();
  });
  const double encode_s = median_seconds(kMicroReps, [&] { (void)serve::encode_result(warm); });
  const double round_trip_s = median_seconds(kMicroReps, [&] {
    (void)serve::request_over_socket(daemon.socket_path(), request);
  });
  r.metric("serve.parse_request_us", "us", 1e6 * parse_s, kMicroReps);
  r.metric("serve.prepare_us", "us", 1e6 * prepare_s, kMicroReps);
  r.metric("serve.submit_hit_us", "us", 1e6 * submit_s, kMicroReps);
  r.metric("serve.encode_result_us", "us", 1e6 * encode_s, kMicroReps);
  r.metric("serve.socket_us", "us",
           1e6 * (round_trip_s - parse_s - prepare_s - submit_s - encode_s), kMicroReps);
  r.extra("serve.warm_round_trip_us", "us", 1e6 * round_trip_s, kMicroReps);

  smc::AnalysisSettings served_settings = request.settings;
  served_settings.threads = pool_width;
  const Fingerprint local = batch::report_content_hash(smc::analyze(model, served_settings));
  ++r.attempted;
  const bool served_ok = first.all_done() && first.jobs.size() == 1 && warm.all_done() &&
                         batch::report_content_hash(first.jobs[0].report) == local &&
                         batch::report_content_hash(warm.jobs[0].report) == local;
  r.check(served_ok, "probe: served report differs from in-process smc::analyze");
  r.failed += served_ok ? 0 : 1;

  // serve: in-flight dedup of identical cold requests sent at once.
  const std::uint64_t dedup_before = serve_registry.counter_value("serve.dedup_hits");
  for (int pair = 0; pair < kDedupPairs; ++pair) {
    serve::Request cold = request;
    cold.settings.seed = mix_seed(options.seed, 200 + static_cast<std::uint64_t>(pair)) >> 11;
    auto send = [&] { return serve::request_over_socket(daemon.socket_path(), cold); };
    std::future<serve::Response> a = std::async(std::launch::async, send);
    std::future<serve::Response> b = std::async(std::launch::async, send);
    const serve::Response ra = a.get(), rb = b.get();
    r.attempted += 2;
    const bool same = ra.all_done() && rb.all_done() &&
                      batch::report_content_hash(ra.jobs[0].report) ==
                          batch::report_content_hash(rb.jobs[0].report);
    r.check(same, "probe: duplicate requests returned different reports");
    r.failed += same ? 0 : 2;
  }
  r.metric("serve.dedup_ratio", "ratio",
           static_cast<double>(serve_registry.counter_value("serve.dedup_hits") - dedup_before) /
               kDedupPairs,
           kDedupPairs);

  LayerProbe probe;
  for (const Result::Metric& m : r.metrics) probe.unit[m.name] = m.value;
  return probe;
}

}  // namespace e2e
