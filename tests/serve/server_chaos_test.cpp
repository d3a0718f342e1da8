// Socket daemon tests, including the Chaos-prefixed fault-site suites (the
// ctest entry chaos_ambient_serve, `ctest -L chaos`, runs them again with a
// sweep.task fault armed from FMTREE_FAULTS; they arm their own faults, so
// they pass with and without it).
//
// The invariants: a served response carries the same report bits as an
// in-process run; a dropped connection (serve.accept) or a dropped event
// write (serve.write) is isolated to that one connection while the daemon —
// and its cache — keep serving; a SIGTERM-style drain mid-request resolves
// the in-flight ticket, and a restarted daemon on the same cache directory
// replays completed work bit-identically; a refused request's error carries
// the C101s of its admission reads to the client.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "../batch/report_bits.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "smc/run_control.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::serve {
namespace {

using batch_test::same_bits;

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

Request sweep_request(std::uint64_t trajectories = 400) {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 5.0;
  r.settings.trajectories = trajectories;
  r.settings.seed = 3;
  r.frequencies = {0, 2};
  r.has_policy = true;
  return r;
}

/// One daemon: a Session and a Server accept loop on its own thread, stopped
/// through the same RunControl a SIGTERM would fire.
struct Daemon {
  obs::MetricsRegistry metrics;
  smc::RunControl stop;
  std::unique_ptr<Session> session;
  std::unique_ptr<Server> server;
  std::thread thread;
  std::string socket_path;

  explicit Daemon(const std::string& name, std::string cache_dir = {},
                  std::size_t queue_limit = 64) {
    socket_path = testing::TempDir() + name + ".sock";
    std::filesystem::remove(socket_path);
    SessionConfig config;
    config.threads = 2;
    config.queue_limit = queue_limit;
    config.cache_dir = std::move(cache_dir);
    config.telemetry.metrics = &metrics;
    session = std::make_unique<Session>(std::move(config));
    ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.stop = &stop;
    server_config.poll_interval_s = 0.02;
    server = std::make_unique<Server>(*session, server_config);
    thread = std::thread([this] { server->run(); });
    for (int i = 0; i < 1000 && !std::filesystem::exists(socket_path); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ~Daemon() { shutdown(); }

  void shutdown() {
    if (thread.joinable()) {
      stop.request_stop();
      thread.join();
    }
  }
};

std::string request_code(const std::string& socket, const Request& r) {
  try {
    (void)request_over_socket(socket, r);
  } catch (const RequestError& e) {
    return e.code();
  }
  return "(no throw)";
}

TEST(ServeSocket, ServedResponseMatchesInProcessBits) {
  // In-process baseline through the same Session entry points.
  SessionConfig config;
  config.threads = 2;
  Session inprocess(std::move(config));
  const Response baseline = inprocess.submit(sweep_request()).take();
  ASSERT_TRUE(baseline.all_done());

  Daemon daemon("fmtree_serve_roundtrip");
  std::size_t accepted_jobs = 0;
  ClientEvents events;
  events.accepted = [&](const std::string&, std::size_t jobs) {
    accepted_jobs = jobs;
  };
  const Response served = request_over_socket(daemon.socket_path,
                                              sweep_request(), events);
  EXPECT_EQ(accepted_jobs, 2u);
  ASSERT_TRUE(served.all_done());
  ASSERT_EQ(served.jobs.size(), baseline.jobs.size());
  for (std::size_t i = 0; i < served.jobs.size(); ++i) {
    EXPECT_EQ(served.jobs[i].label, baseline.jobs[i].label);
    EXPECT_EQ(served.jobs[i].key.id(), baseline.jobs[i].key.id());
    EXPECT_TRUE(same_bits(served.jobs[i].report, baseline.jobs[i].report)) << i;
  }
  EXPECT_EQ(daemon.metrics.counter_value("serve.requests"), 1u);
  EXPECT_EQ(daemon.metrics.counter_value("batch.jobs_simulated"), 2u);
}

TEST(ServeSocket, SigtermDrainMidRequestThenRestartReplaysFromCache) {
  const std::string cache_dir =
      testing::TempDir() + "fmtree_serve_drain_cache";
  std::filesystem::remove_all(cache_dir);

  Response before_drain;
  Response interrupted;
  {
    Daemon daemon("fmtree_serve_drain", cache_dir);
    before_drain = request_over_socket(daemon.socket_path, sweep_request());
    ASSERT_TRUE(before_drain.all_done());

    // A request far too large to finish; the drain lands mid-flight. The
    // stop is only fired once the daemon has accepted the request, so the
    // drain deterministically interrupts a submitted job.
    std::atomic<bool> accepted{false};
    std::thread client([&] {
      ClientEvents events;
      events.accepted = [&](const std::string&, std::size_t) {
        accepted.store(true);
      };
      try {
        interrupted = request_over_socket(daemon.socket_path,
                                          sweep_request(50'000'000), events);
      } catch (const Error&) {
      }
    });
    for (int i = 0; i < 1000 && !accepted.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(accepted.load());
    daemon.stop.request_stop();  // what the SIGTERM handler does
    daemon.shutdown();
    client.join();
  }
  // The in-flight ticket resolved instead of hanging; its unfinished jobs
  // report Interrupted and the response says why.
  EXPECT_GT(interrupted.count(batch::JobState::Interrupted), 0u);
  EXPECT_EQ(interrupted.stop_reason, smc::StopReason::Interrupted);

  // A restarted daemon on the same cache directory replays the completed
  // request bit-identically, without simulating anything again.
  Daemon restarted("fmtree_serve_drain2", cache_dir);
  const Response replayed =
      request_over_socket(restarted.socket_path, sweep_request());
  ASSERT_TRUE(replayed.all_done());
  ASSERT_EQ(replayed.jobs.size(), before_drain.jobs.size());
  for (std::size_t i = 0; i < replayed.jobs.size(); ++i) {
    EXPECT_TRUE(replayed.jobs[i].cache_hit) << i;
    EXPECT_TRUE(same_bits(replayed.jobs[i].report, before_drain.jobs[i].report))
        << i;
  }
  EXPECT_EQ(restarted.metrics.counter_value("batch.jobs_simulated"), 0u);
}

// A request the daemon refuses for want of queue slots still reports the
// corrupt entries its admission reads found: the client's AdmissionError
// carries them after the R120.
TEST(ServeSocket, ARefusedRequestCarriesItsC101sOverTheSocket) {
  const std::string dir = testing::TempDir() + "fmtree_serve_refused_cache";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  {
    Daemon warm("fmtree_serve_refused_warm", dir);
    ASSERT_TRUE(request_over_socket(warm.socket_path, sweep_request()).all_done());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    // A torn write: the entry keeps only its first half.
    std::filesystem::resize_file(entry.path(),
                                 std::filesystem::file_size(entry.path()) / 2);
  }

  Daemon daemon("fmtree_serve_refused", dir, /*queue_limit=*/1);
  try {
    (void)request_over_socket(daemon.socket_path, sweep_request());
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    ASSERT_EQ(e.diagnostics().size(), 3u);
    EXPECT_EQ(e.diagnostics()[0].code, "R120");
    EXPECT_EQ(e.diagnostics()[1].code, "C101");
    EXPECT_EQ(e.diagnostics()[2].code, "C101");
  }
  EXPECT_EQ(daemon.metrics.counter_value("serve.rejected"), 1u);
  EXPECT_EQ(daemon.metrics.counter_value("cache.corrupt_entries"), 2u);
}

TEST(ChaosServe, DroppedAcceptIsIsolatedToOneConnection) {
  Daemon daemon("fmtree_chaos_accept");
  const fault::Scope faults({"serve.accept:error,nth=1,limit=1"});
  // The daemon drops the first freshly accepted connection; that client sees
  // a transport failure (R121), not a hang and not a scrambled response.
  EXPECT_EQ(request_code(daemon.socket_path, sweep_request()), "R121");
  // The very next connection is served normally.
  const Response response =
      request_over_socket(daemon.socket_path, sweep_request());
  EXPECT_TRUE(response.all_done());
}

TEST(ChaosServe, DroppedResultWriteLeavesTheCachedResultIntact) {
  Daemon daemon("fmtree_chaos_write");
  const Response first = request_over_socket(daemon.socket_path, sweep_request());
  ASSERT_TRUE(first.all_done());
  const std::uint64_t simulated =
      daemon.metrics.counter_value("batch.jobs_simulated");
  {
    // Write #1 after arming is this connection's "accepted" event, write #2
    // its result (a cache hit resolves before any progress event): the
    // response is lost on the wire, after the work is safely cached.
    const fault::Scope faults({"serve.write:error,nth=2,limit=1"});
    EXPECT_EQ(request_code(daemon.socket_path, sweep_request()), "R121");
  }
  // Nothing was recomputed, and the retry is served — bit-identical — from
  // the cache the dropped connection already populated.
  const Response retry = request_over_socket(daemon.socket_path, sweep_request());
  ASSERT_TRUE(retry.all_done());
  for (std::size_t i = 0; i < retry.jobs.size(); ++i) {
    EXPECT_TRUE(retry.jobs[i].cache_hit) << i;
    EXPECT_TRUE(same_bits(retry.jobs[i].report, first.jobs[i].report)) << i;
  }
  EXPECT_EQ(daemon.metrics.counter_value("batch.jobs_simulated"), simulated);
}

}  // namespace
}  // namespace fmtree::serve
