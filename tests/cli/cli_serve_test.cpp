// CLI surface of the analysis service: `fmtree serve` argument handling,
// `sweep --emit-request` as the canonical schema emitter, the `sweep` and
// `fleet --connect` thin client, and the serve-specific exit-code mapping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "cli/cli.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "smc/run_control.hpp"
#include "util/error.hpp"

namespace fmtree::cli {
namespace {

const char* kSweepModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

TEST(CliServeArgs, ParsesSocketAndServeFlags) {
  const Options o = parse_args({"serve", "/tmp/fmtree.sock", "--queue-limit",
                                "8", "--model-root", "/srv/models",
                                "--cache-dir", "/tmp/c"});
  EXPECT_EQ(o.command, Command::Serve);
  EXPECT_EQ(o.inputs, std::vector<std::string>{"/tmp/fmtree.sock"});
  EXPECT_EQ(o.queue_limit, 8u);
  EXPECT_EQ(o.model_root, "/srv/models");
  EXPECT_EQ(o.cache_dir, "/tmp/c");
}

TEST(CliServeArgs, RejectsBadUsage) {
  EXPECT_THROW(parse_args({"serve"}), DomainError);  // missing socket path
  EXPECT_THROW(parse_args({"serve", "s.sock", "--queue-limit", "0"}),
               DomainError);
  // --connect / --emit-request are sweep-only.
  EXPECT_THROW(parse_args({"analyze", "m.fmt", "--connect", "s.sock"}),
               DomainError);
  EXPECT_THROW(parse_args({"check", "m.fmt", "--emit-request"}), DomainError);
}

TEST(CliSweepEmitRequest, PrintsTheCanonicalRequestDocument) {
  Options o;
  o.command = Command::Sweep;
  o.emit_request = true;
  o.horizon = 5.0;
  o.runs = 200;
  o.seed = 3;
  o.frequencies = {0, 2};
  std::ostringstream out, err;
  ASSERT_EQ(run(o, {kSweepModel}, out, err), kExitOk);
  // The emitted document round-trips through the schema parser and carries
  // this invocation's settings bit-exactly (hexfloat canonical form).
  const serve::Request parsed = serve::parse_request(out.str());
  EXPECT_EQ(parsed.model_text, kSweepModel);
  EXPECT_DOUBLE_EQ(parsed.settings.horizon, 5.0);
  EXPECT_EQ(parsed.settings.trajectories, 200u);
  EXPECT_EQ(parsed.settings.seed, 3u);
  ASSERT_EQ(parsed.frequencies.size(), 2u);
  EXPECT_EQ(serve::encode_request(parsed), out.str());
}

TEST(CliSweepConnect, RefusedConnectionIsAUsageErrorWithR121) {
  const std::string model = testing::TempDir() + "fmtree_cli_connect_model.fmt";
  std::ofstream(model) << kSweepModel;
  std::ostringstream out, err;
  const int code = main_impl({"sweep", model, "--connect",
                              testing::TempDir() + "no-daemon-here.sock"},
                             out, err);
  EXPECT_EQ(code, kExitUsage);
  EXPECT_NE(err.str().find("R121"), std::string::npos);
}

// A --connect client stops at --timeout as an in-process run does: it closes
// its connection, prints a NOTE naming the stop and exits 1 with no table.
// The daemon is a Session and a Server with a stop handle of their own: run()
// rearms interrupt_control(), so `fmtree serve` in this process would share
// the client's deadline. It cancels the abandoned jobs at its next progress
// write and answers the next request.
TEST(CliSweepConnect, ClientStopsAtItsTimeoutAndTheDaemonServesOn) {
  const std::string socket = testing::TempDir() + "fmtree_cli_connect_timeout.sock";
  std::filesystem::remove(socket);
  smc::RunControl daemon_stop;
  serve::SessionConfig config;
  config.threads = 2;
  serve::Session session(std::move(config));
  serve::ServerConfig server_config;
  server_config.socket_path = socket;
  server_config.stop = &daemon_stop;
  server_config.poll_interval_s = 0.02;
  serve::Server server(session, server_config);
  std::thread daemon([&] { server.run(); });
  for (int i = 0; i < 1000 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(std::filesystem::exists(socket));

  // Runs a client; one still waiting after `seconds` is released by stopping
  // the daemon (its drain answers every connection), so a failure never hangs.
  const auto client = [&](const std::vector<std::string>& args, double seconds,
                          std::string& out) {
    std::ostringstream client_out, client_err;
    std::future<int> code = std::async(std::launch::async, [&] {
      return main_impl(args, client_out, client_err);
    });
    const auto limit = std::chrono::duration<double>(seconds);
    const bool returned = code.wait_for(limit) == std::future_status::ready;
    EXPECT_TRUE(returned) << "fmtree " << args[0] << " still waiting after " << seconds
                          << " s";
    if (!returned) daemon_stop.request_stop();
    const int exit_code = code.get();
    out = client_out.str() + client_err.str();
    return exit_code;
  };

  const std::string root = FMTREE_SOURCE_DIR;
  std::string out;
  EXPECT_EQ(client({"sweep", root + "/models/ei_joint.fmt", "--runs", "50000000",
                    "--timeout", "1", "--connect", socket},
                   5.0, out),
            kExitTruncated)
      << out;
  EXPECT_NE(out.find("NOTE: stopped (deadline)"), std::string::npos) << out;
  EXPECT_EQ(out.find("cost curve"), std::string::npos) << out;

  const std::string model = testing::TempDir() + "fmtree_cli_connect_timeout.fmt";
  std::ofstream(model) << kSweepModel;
  EXPECT_EQ(client({"sweep", model, "--horizon", "5", "--runs", "200", "--seed", "3",
                    "--frequencies", "0,2", "--connect", socket},
                   10.0, out),
            kExitOk)
      << out;
  EXPECT_NE(out.find("cost-optimal policy"), std::string::npos) << out;
  daemon_stop.request_stop();
  daemon.join();
}

// End to end through main_impl: a daemon thread and client invocations in
// the same process, as two processes would run them. Each client's rendering
// must be byte-identical to the standalone run of the same command (the
// served response carries hexfloat-exact reports, so even the last decimal
// agrees): a cost-curve sweep, and the corridor of the golden_corridor test
// (tests/CMakeLists.txt), whose `fleet` request member must expand to the
// very jobs the in-process run executes.
TEST(CliServe, ServedSweepRendersByteIdenticalToStandalone) {
  const std::string model = testing::TempDir() + "fmtree_cli_serve_model.fmt";
  std::ofstream(model) << kSweepModel;
  const std::string socket = testing::TempDir() + "fmtree_cli_serve.sock";
  std::filesystem::remove(socket);

  const std::string root = FMTREE_SOURCE_DIR;
  const std::vector<std::vector<std::string>> commands = {
      {"sweep", model, "--horizon", "5", "--runs", "200", "--seed", "3", "--frequencies",
       "0,2"},
      {"fleet", root + "/models/ei_joint.fmt", "--joints", "25", "--fleet-seed", "7",
       "--jitter", "0.1", "--coupling", "0.25", "--horizon", "20", "--runs", "2000",
       "--seed", "1", "--crews", "1", "--worst", "5", "--policy",
       root + "/examples/policies/shared_crew.mpl"}};
  std::vector<std::string> standalone;
  for (const std::vector<std::string>& args : commands) {
    std::ostringstream out, err;
    ASSERT_EQ(main_impl(args, out, err), kExitOk) << err.str();
    standalone.push_back(out.str());
  }

  std::ostringstream serve_out, serve_err;
  std::thread daemon([&] {
    (void)main_impl({"serve", socket}, serve_out, serve_err);
  });
  for (int i = 0; i < 1000 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(std::filesystem::exists(socket));

  std::vector<int> codes;
  std::vector<std::string> served, served_err;
  for (std::vector<std::string> args : commands) {
    args.insert(args.end(), {"--connect", socket});
    std::ostringstream client, client_err;
    codes.push_back(main_impl(args, client, client_err));
    served.push_back(client.str());
    served_err.push_back(client_err.str());
  }
  interrupt_control().request_stop();  // what a SIGTERM to the daemon does
  daemon.join();
  for (std::size_t i = 0; i < commands.size(); ++i) {
    ASSERT_EQ(codes[i], kExitOk) << commands[i][0] << ": " << served_err[i];
    EXPECT_EQ(served[i], standalone[i]) << commands[i][0];
  }
  EXPECT_NE(serve_out.str().find("listening on"), std::string::npos);
  EXPECT_NE(serve_out.str().find("drained"), std::string::npos);
}

}  // namespace
}  // namespace fmtree::cli
