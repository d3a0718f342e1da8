// served_mix — many planners sharing one daemon, open loop with seeded
// Poisson arrivals. An in-process serve::Server fronts a serve::Session
// (pool width 2, disk-tier cache, models/ as model root); requests travel
// through serve::request_over_socket on at most nproc concurrent
// connections. About 80% of arrivals are warm (one of 8 documents computed
// during set-up), 15% cold (a fresh seed, a 2000-trajectory EI-joint
// analysis) and 5% a pair of identical cold requests sent at once, which the
// session should deduplicate. This is the only workload through request
// parsing, admission, dedup, the protocol encoder and the socket.
#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <thread>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "daemon.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "smc/kpi.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace fmtree;

constexpr unsigned kWidth = kServedWidth;
constexpr int kSetupReps = 7;
/// Offered load. A cold request is one 2000-trajectory task, about 27 ms of
/// one worker on the seed build, and the session runs one sweep batch at a
/// time; 0.2 cold computations per arrival at 100 arrivals/s keep the pool
/// about half busy.
constexpr double kArrivalsPerSecond = 100.0;
constexpr double kWarmShare = 0.80;
constexpr double kColdShare = 0.15;  // the rest are duplicate pairs
constexpr std::uint64_t kColdTrajectories = 2000;
constexpr std::size_t kColdChecks = 24;
/// Latency limits the open loop is judged against.
constexpr double kWarmP99LimitMs = 50.0;
constexpr double kColdP90LimitMs = 500.0;
constexpr int kBurstRequests = 400;

enum class Kind : std::uint8_t { Warm, Cold, Duplicate };

struct Arrival {
  double due_s = 0.0;
  Kind kind = Kind::Warm;
  std::size_t doc = 0;     ///< warm: index into the warm set
  std::uint64_t seed = 0;  ///< cold/duplicate: the analysis seed
};

struct Outcome {
  double latency_s = 0.0;  ///< from due time to decoded result
  double late_s = 0.0;     ///< how late the request was sent
  bool ok = false;
  std::vector<Fingerprint> bits;
};

/// Seeds for request documents. The request schema carries the seed as a
/// JSON number, which round-trips exactly only below 2^53.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t salt) {
  return mix_seed(seed, salt) >> 11;
}

serve::Request analysis(const std::string& ref, std::uint64_t trajectories, std::uint64_t seed) {
  serve::Request r;
  r.model_ref = ref;
  r.settings.trajectories = trajectories;
  r.settings.seed = seed;
  return r;
}

/// The warm set: EI-joint and compressor analyses, 3-frequency sweeps, one
/// scripted periodic.mpl request and one 25-joint fleet, models by ref and
/// inline.
std::vector<serve::Request> warm_documents(std::uint64_t seed) {
  const std::string ei_text = read_file(kEiJointModel);
  const std::string compressor_text = read_file(kCompressorModel);
  std::vector<serve::Request> docs;
  docs.push_back(analysis("ei_joint.fmt", 10000, request_seed(seed, 10)));
  docs.push_back(analysis("", 10000, request_seed(seed, 11)));
  docs.back().model_text = ei_text;
  docs.push_back(analysis("compressor.fmt", 10000, request_seed(seed, 12)));
  docs.push_back(analysis("", 5000, request_seed(seed, 13)));
  docs.back().model_text = compressor_text;
  docs.push_back(analysis("ei_joint.fmt", 2500, request_seed(seed, 14)));
  docs.back().frequencies = {2, 4, 8};
  docs.back().has_policy = true;
  docs.push_back(analysis("compressor.fmt", 2500, request_seed(seed, 15)));
  docs.back().frequencies = {1, 2, 4};
  docs.back().has_policy = true;
  docs.push_back(analysis("ei_joint.fmt", 5000, request_seed(seed, 16)));
  docs.back().scripts.push_back({read_file(kPeriodicPolicy), ""});
  docs.back().has_policy = true;
  docs.push_back(analysis("ei_joint.fmt", 500, request_seed(seed, 17)));
  docs.back().has_fleet = true;
  docs.back().fleet = {25, request_seed(seed, 18), 0.1, 0.2};
  for (std::size_t i = 0; i < docs.size(); ++i) docs[i].id = "warm-" + std::to_string(i);
  return docs;
}

serve::Request cold_document(std::uint64_t seed) {
  serve::Request r = analysis("ei_joint.fmt", kColdTrajectories, seed);
  r.id = "cold";
  return r;
}

std::vector<Fingerprint> response_bits(const serve::Response& response) {
  std::vector<Fingerprint> bits;
  for (const serve::JobOutcome& job : response.jobs)
    bits.push_back(batch::report_content_hash(job.report));
  return bits;
}

/// The in-process computation of a document: prepare + run_sweep, no cache.
std::vector<Fingerprint> local_bits(const serve::Request& doc) {
  batch::SweepPlan plan;
  plan.jobs = serve::prepare(doc, kModelRoot).jobs;
  plan.threads = kStudyWidth;
  const batch::SweepOutcome out = batch::run_sweep(plan);
  std::vector<Fingerprint> bits;
  for (const batch::JobResult& job : out.results)
    bits.push_back(job.completed ? batch::report_content_hash(job.report) : Fingerprint{});
  return bits;
}

std::vector<Arrival> schedule(std::uint64_t seed, double seconds, std::size_t docs) {
  std::mt19937_64 rng(mix_seed(seed, 3));
  std::exponential_distribution<double> gap(kArrivalsPerSecond);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, docs - 1);
  std::vector<Arrival> arrivals;
  std::uint64_t cold = 0;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    const double x = u(rng);
    if (x < kWarmShare) {
      arrivals.push_back({t, Kind::Warm, pick(rng), 0});
    } else {
      const std::uint64_t s = request_seed(seed, 1000 + cold++);
      if (x < kWarmShare + kColdShare) {
        arrivals.push_back({t, Kind::Cold, 0, s});
      } else {
        arrivals.push_back({t, Kind::Duplicate, 0, s});
        arrivals.push_back({t, Kind::Duplicate, 0, s});
      }
    }
  }
  return arrivals;
}

serve::SessionConfig session_config(ScratchDir& scratch) {
  serve::SessionConfig config;
  config.threads = kWidth;
  config.cache_dir = scratch.fresh("served-cache");
  config.model_root = kModelRoot;
  return config;
}

}  // namespace

Result run_served_mix(const Options& options, ScratchDir& scratch, const LayerProbe* probe) {
  Result result;
  result.note(environment_line(options, kWidth) +
              " connections=" + std::to_string(options.nproc));
  const std::vector<serve::Request> docs = warm_documents(options.seed);

  // Set-up: start the daemon and compute the warm set through its session.
  // Repeated; the last daemon serves the run. The traced run attaches the
  // program's metrics to that one for the pool counters.
  Samples setup;
  obs::MetricsRegistry registry;
  std::optional<Daemon> daemon;
  double warm_set_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    serve::SessionConfig config = session_config(scratch);
    if (options.trace && rep + 1 == kSetupReps) config.telemetry.metrics = &registry;
    const auto t0 = Clock::now();
    daemon.emplace(config, (scratch.path() / ("d" + std::to_string(rep) + ".sock")).string());
    const auto t_warm = Clock::now();
    std::vector<serve::Ticket> tickets;
    for (const serve::Request& doc : docs) tickets.push_back(daemon->session().submit(doc));
    for (serve::Ticket& t : tickets) t.wait();
    warm_set_s = seconds_since(t_warm);
    setup.add(seconds_since(t0));
  }
  std::vector<std::vector<Fingerprint>> expected;
  for (const serve::Request& doc : docs) expected.push_back(local_bits(doc));

  if (options.trace) {
    // Overhead: the same warm requests, alternating between the traced
    // daemon and an untraced one sharing its cache.
    serve::SessionConfig plain = session_config(scratch);
    plain.cache = &daemon->session().cache();
    Daemon untraced(plain, (scratch.path() / "plain.sock").string());
    Samples traced_s, untraced_s;
    std::vector<Samples> per_doc(docs.size());
    for (int i = 0; i < kBurstRequests; ++i) {
      const std::size_t d = static_cast<std::size_t>(i / 2) % docs.size();
      Daemon& target = i % 2 == 0 ? *daemon : untraced;
      const auto t0 = Clock::now();
      const serve::Response r = serve::request_over_socket(target.socket_path(), docs[d]);
      const double wall = seconds_since(t0);
      (i % 2 == 0 ? traced_s : untraced_s).add(wall);
      if (i % 2 == 0) per_doc[d].add(wall);
      ++result.attempted;
      const bool ok = r.all_done() && response_bits(r) == expected[d];
      result.check(ok, "burst request " + std::to_string(i) + " differs from in-process run");
      result.failed += ok ? 0 : 1;
    }
    report_trace(SpanLog(false), traced_s, untraced_s, result);
    // In-process parts of each warm document against its round trip.
    double modelled = 0.0, measured = 0.0;
    for (std::size_t d = 0; d < docs.size(); ++d) {
      const std::string text = serve::encode_request(docs[d]);
      serve::Response response;
      modelled += median_seconds(20, [&] { (void)serve::parse_request(text); }) +
                  median_seconds(20, [&] { (void)serve::prepare(docs[d], kModelRoot); }) +
                  median_seconds(20, [&] { response = daemon->session().submit(docs[d]).take(); }) +
                  median_seconds(20, [&] { (void)serve::encode_result(response); });
      measured += per_doc[d].median();
    }
    result.metric("unattributed_pct", "%", 100.0 * (1.0 - modelled / measured), docs.size());
    const double events = static_cast<double>(registry.counter_value("batch.events"));
    result.metric("batch.scaling_eff", "ratio",
                  events / warm_set_s / (kWidth * 1e9 / probe->at("smc.ns_per_event")), 1);
    result.metric("batch.tasks", "count",
                  static_cast<double>(registry.counter_value("batch.tasks")), 1);
    result.metric("batch.steals", "count",
                  static_cast<double>(registry.counter_value("batch.steals")), 1);
    return result;
  }

  // The open loop: the schedule exists before the first request is sent.
  const std::vector<Arrival> arrivals = schedule(options.seed, options.seconds, docs.size());
  std::vector<Outcome> outcomes(arrivals.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  auto client = [&] {
    for (std::size_t i = next.fetch_add(1); i < arrivals.size(); i = next.fetch_add(1)) {
      const Arrival& a = arrivals[i];
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(a.due_s));
      std::this_thread::sleep_until(due);
      Outcome& o = outcomes[i];
      o.late_s = std::chrono::duration<double>(Clock::now() - due).count();
      try {
        const serve::Request doc = a.kind == Kind::Warm ? docs[a.doc] : cold_document(a.seed);
        const serve::Response r = serve::request_over_socket(daemon->socket_path(), doc);
        o.latency_s = std::chrono::duration<double>(Clock::now() - due).count();
        o.ok = r.all_done();
        o.bits = response_bits(r);
      } catch (const std::exception&) {
        o.latency_s = std::chrono::duration<double>(Clock::now() - due).count();
        o.ok = false;
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < options.nproc; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  double last_done_s = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    last_done_s = std::max(last_done_s, arrivals[i].due_s + outcomes[i].latency_s);

  // Checks: warm responses against the in-process warm set, duplicate pairs
  // against each other, a seeded sample of cold ones against smc::analyze.
  Samples warm_ms, cold_ms, late_ms;
  std::uint64_t sent[3] = {}, succeeded[3] = {};
  std::vector<std::size_t> cold_indices;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    Outcome& o = outcomes[i];
    const auto k = static_cast<std::size_t>(a.kind);
    if (a.kind == Kind::Warm) o.ok = o.ok && o.bits == expected[a.doc];
    if (a.kind == Kind::Duplicate && i + 1 < arrivals.size() && arrivals[i + 1].seed == a.seed &&
        arrivals[i + 1].kind == Kind::Duplicate) {
      const bool same = outcomes[i + 1].bits == o.bits;
      o.ok = o.ok && same;
      outcomes[i + 1].ok = outcomes[i + 1].ok && same;
    }
    if (a.kind != Kind::Warm && o.ok) cold_indices.push_back(i);
    ++sent[k];
    succeeded[k] += o.ok ? 1 : 0;
    // A failed request misses every latency limit.
    const double ms = o.ok ? 1e3 * o.latency_s : 1e300;
    (a.kind == Kind::Warm ? warm_ms : cold_ms).add(ms);
    late_ms.add(1e3 * o.late_s);
  }
  std::mt19937_64 rng(mix_seed(options.seed, 4));
  std::shuffle(cold_indices.begin(), cold_indices.end(), rng);
  if (cold_indices.size() > kColdChecks) cold_indices.resize(kColdChecks);
  for (std::size_t i : cold_indices) {
    const bool same = outcomes[i].bits == local_bits(cold_document(arrivals[i].seed));
    result.check(same, "cold request (seed " + std::to_string(arrivals[i].seed) +
                           ") differs from in-process smc::analyze");
    if (!same) {
      outcomes[i].ok = false;
      --succeeded[static_cast<std::size_t>(arrivals[i].kind)];
    }
  }
  const char* names[3] = {"warm", "cold", "duplicate"};
  for (std::size_t k = 0; k < 3; ++k) {
    result.note("requests " + std::string(names[k]) + ": sent=" + std::to_string(sent[k]) +
                " succeeded=" + std::to_string(succeeded[k]) +
                " failed=" + std::to_string(sent[k] - succeeded[k]));
    result.attempted += sent[k];
    result.failed += sent[k] - succeeded[k];
  }
  result.check(result.failed == 0, std::to_string(result.failed) + " served requests failed");

  auto share_over = [](const Samples& s, double limit) {
    const auto n = std::count_if(s.values.begin(), s.values.end(),
                                 [&](double v) { return v > limit; });
    return s.size() ? 100.0 * static_cast<double>(n) / static_cast<double>(s.size()) : 0.0;
  };
  result.note("offered_rate=" + std::to_string(kArrivalsPerSecond) +
              "/s warm_p99_limit=" + std::to_string(kWarmP99LimitMs) +
              "ms cold_p90_limit=" + std::to_string(kColdP90LimitMs) + "ms");
  const double completed = static_cast<double>(result.attempted - result.failed);
  result.extra("warm_p50_ms", "ms", warm_ms.median(), warm_ms.size());
  result.extra("warm_p99_ms", "ms", warm_ms.quantile(0.99), warm_ms.size());
  result.extra("warm_over_limit_pct", "%", share_over(warm_ms, kWarmP99LimitMs), warm_ms.size());
  result.extra("cold_p50_ms", "ms", cold_ms.median(), cold_ms.size());
  result.extra("cold_p90_ms", "ms", cold_ms.quantile(0.9), cold_ms.size());
  result.extra("cold_over_limit_pct", "%", share_over(cold_ms, kColdP90LimitMs), cold_ms.size());
  result.extra("served_rps", "1/s", completed / last_done_s, result.attempted);
  result.extra("loadgen.late_p99_ms", "ms", late_ms.quantile(0.99), late_ms.size());
  result.extra("failed_ratio", "ratio",
               static_cast<double>(result.failed) / static_cast<double>(result.attempted),
               result.attempted);
  result.metric("setup_s", "s", setup.median(), setup.size());
  result.metric("main_ms", "ms", warm_ms.median(), warm_ms.size());
  result.metric("heavy_ms", "ms", cold_ms.median(), cold_ms.size());
  return result;
}

}  // namespace e2e
