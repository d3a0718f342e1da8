// corridor_replay — a planner re-running a 1000-joint corridor after editing
// one joint, closed loop with one caller. A cold phase analyses the corridor
// into an empty disk-tier cache; each replay then opens a fresh
// ResultCache(dir), as every CLI call does, and re-runs fleet::analyze_fleet
// with one joint overridden, a different joint each time: 999 disk hits and
// one simulated joint. Replays are dominated by corridor generation,
// canonical hashing, disk reads with hexfloat decoding and aggregation; the
// kernel takes a few percent.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <random>

#include "batch/result_cache.hpp"
#include "fleet/corridor.hpp"
#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "smc/kpi.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace fmtree;

constexpr unsigned kWidth = kCorridorWidth;
constexpr std::size_t kJoints = 1000;
constexpr std::uint64_t kTrajectories = 500;
constexpr std::uint64_t kFleetSeed = 2016;
constexpr std::size_t kColdReps = 5;
constexpr std::size_t kMinReplays = 20;

fleet::CorridorSpec corridor_spec() {
  fleet::CorridorSpec spec;
  spec.joints = kJoints;
  spec.seed = kFleetSeed;
  spec.jitter = 0.1;
  spec.coupling = 0.2;
  return spec;
}

std::vector<Fingerprint> joint_bits(const fleet::FleetOutcome& outcome) {
  std::vector<Fingerprint> bits;
  for (const fleet::JointSummary& joint : outcome.joints)
    bits.push_back(batch::report_content_hash(joint.report));
  return bits;
}

}  // namespace

Result run_corridor_replay(const Options& options, ScratchDir& scratch,
                           const LayerProbe* probe) {
  Result result;
  result.note(environment_line(options, kWidth));

  // Set-up: read and parse the base model, generate the corridor. It is
  // repeated after every replay too, so its median spans the whole run
  // instead of one noisy instant at start.
  Samples setup;
  std::optional<fmt::FaultMaintenanceTree> base;
  fleet::Corridor corridor;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    base.emplace(fmt::parse_fmt(read_file(kEiJointModel)));
    corridor = fleet::generate_corridor(*base, corridor_spec());
    setup.add(seconds_since(t0));
  };
  set_up();
  fleet::FleetOptions fleet_options;
  fleet_options.settings.trajectories = kTrajectories;
  fleet_options.settings.seed = mix_seed(options.seed, 1);
  fleet_options.threads = kWidth;

  // Cold phases go into fresh empty caches and are spread over the run,
  // between the replays, so slow drifts of the host reach both kinds of
  // sample alike. Every cold phase must reproduce the first bit for bit;
  // the replays use the first one's cache.
  const auto start = Clock::now();
  obs::MetricsRegistry registry;
  Samples cold_s;
  std::string replay_dir;
  std::vector<Fingerprint> cold_bits;
  double traced_cold_s = 0.0;
  auto cold_phase = [&] {
    const int rep = static_cast<int>(cold_s.size());
    const std::string dir = scratch.fresh("corridor");
    obs::Telemetry telemetry;
    if (options.trace && rep == 0) telemetry.metrics = &registry;
    const auto t0 = Clock::now();
    std::optional<fleet::FleetOutcome> outcome;
    {
      batch::ResultCache cache(dir);
      outcome.emplace(fleet::analyze_fleet(corridor, fleet_options, &cache, telemetry));
    }
    cold_s.add(seconds_since(t0));
    ++result.attempted;
    bool ok = outcome->jobs_failed == 0 && !outcome->truncated &&
              outcome->cache_misses == kJoints && outcome->cache_hits == 0;
    const std::vector<Fingerprint> bits = joint_bits(*outcome);
    if (rep == 0) {
      traced_cold_s = cold_s.values.back();
      cold_bits = bits;
      replay_dir = dir;
    } else {
      std::filesystem::remove_all(dir);
    }
    ok = ok && bits == cold_bits;
    result.check(ok, "cold corridor " + std::to_string(rep) +
                         ": failed jobs, cache hits or non-reproducible reports");
    result.failed += ok ? 0 : 1;
  };
  cold_phase();

  // Replays: a seeded order of joints to edit and a scale per edit.
  std::mt19937_64 rng(mix_seed(options.seed, 2));
  std::vector<std::size_t> order(kJoints);
  for (std::size_t i = 0; i < kJoints; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::uniform_real_distribution<double> scale_draw(0.6, 0.95);

  SpanLog log(options.trace);
  Samples replay_s, traced_op_s, untraced_op_s;
  for (std::size_t replay = 0;
       cold_s.size() < kColdReps || replay < kMinReplays ||
       (seconds_since(start) < options.seconds && replay < kJoints);
       ++replay) {
    if (cold_s.size() < kColdReps &&
        seconds_since(start) >= options.seconds * static_cast<double>(cold_s.size()) / kColdReps)
      cold_phase();
    const std::size_t edited = order[replay];
    fleet::CorridorSpec spec = corridor_spec();
    spec.overrides.push_back({edited, scale_draw(rng)});
    const bool traced = options.trace && replay % 2 == 0;
    log.set_enabled(traced);
    log.set_op(replay);

    const auto t0 = Clock::now();
    auto op = log.span("op.replay");
    const fleet::Corridor edited_corridor = [&] {
      auto s = log.span("fleet.generate_corridor");
      return fleet::generate_corridor(*base, spec);
    }();
    auto open_span = log.span("batch.ResultCache");
    batch::ResultCache cache(replay_dir);
    open_span.close();
    fleet::FleetOutcome outcome = [&] {
      auto s = log.span("fleet.analyze_fleet");
      return fleet::analyze_fleet(edited_corridor, fleet_options, &cache);
    }();
    op.close();
    const double wall = seconds_since(t0);
    replay_s.add(wall);
    if (options.trace) (traced ? traced_op_s : untraced_op_s).add(wall);

    // Checks: unedited joints replay their cold bits, the edited joint
    // equals a standalone smc::analyze of its model.
    ++result.attempted;
    bool ok = outcome.jobs_failed == 0 && outcome.cache_hits == kJoints - 1 &&
              outcome.cache_misses == 1;
    const std::vector<Fingerprint> bits = joint_bits(outcome);
    for (std::size_t j = 0; ok && j < kJoints; ++j)
      ok = j == edited || bits[j] == cold_bits[j];
    smc::AnalysisSettings standalone = fleet_options.settings;
    standalone.threads = kWidth;
    ok = ok && bits[edited] == batch::report_content_hash(
                                   smc::analyze(edited_corridor.joints[edited].model, standalone));
    result.check(ok, "replay " + std::to_string(replay) + " (joint " + std::to_string(edited) +
                         "): wrong hit count or report bits");
    result.failed += ok ? 0 : 1;
    set_up();
  }

  std::string cold_line = "cold phases (s):";
  for (double v : cold_s.values) cold_line += " " + std::to_string(v);
  result.note(cold_line);
  result.extra("cold_s", "s", cold_s.median(), cold_s.size());
  result.extra("replay_ms", "ms", 1e3 * replay_s.median(), replay_s.size());
  result.extra("replay_p90_ms", "ms", 1e3 * replay_s.quantile(0.9), replay_s.size());
  result.extra("failed_ratio", "ratio",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               result.attempted);
  if (!options.trace) {
    result.metric("setup_s", "s", setup.median(), setup.size());
    result.metric("main_ms", "ms", 1e3 * replay_s.median(), replay_s.size());
    result.metric("heavy_ms", "ms", 1e3 * cold_s.median(), cold_s.size());
    return result;
  }

  report_trace(log, traced_op_s, untraced_op_s, result);
  // The replay modelled from the probe's unit costs: generation, cache open,
  // plan, 1000 keys, 999 disk reads, one simulated joint written to disk and
  // aggregation. What the model misses is the replay's unattributed part.
  const LayerProbe& p = *probe;
  const double kernel_ms = kTrajectories * p.at("smc.events_per_traj") *
                           p.at("smc.ns_per_event") * 1e-6;
  const double modelled_ms =
      p.at("fleet.generate_ms") + p.at("batch.cache_open_ms") + p.at("fleet.plan_ms") +
      p.at("batch.sweep_fixed_ms") + 1e-3 * kJoints * p.at("batch.cache_key_us") +
      1e-3 * (kJoints - 1) * p.at("batch.cache_get_disk_us") + kernel_ms +
      1e-3 * p.at("batch.cache_put_disk_us") + p.at("fleet.aggregate_ms");
  const double traced_replay_ms = 1e3 * traced_op_s.median();
  result.extra("fleet.replay_modelled_ms", "ms", modelled_ms, traced_op_s.size());
  result.extra("fleet.replay_unattributed_ms", "ms", traced_replay_ms - modelled_ms,
               traced_op_s.size());
  result.metric("unattributed_pct", "%", 100.0 * (1.0 - modelled_ms / traced_replay_ms),
                traced_op_s.size());
  const double events = static_cast<double>(registry.counter_value("batch.events"));
  result.metric("batch.scaling_eff", "ratio",
                events / traced_cold_s / (kWidth * 1e9 / p.at("smc.ns_per_event")), 1);
  result.metric("batch.tasks", "count", static_cast<double>(registry.counter_value("batch.tasks")),
                1);
  result.metric("batch.steals", "count",
                static_cast<double>(registry.counter_value("batch.steals")), 1);
  return result;
}

}  // namespace e2e
