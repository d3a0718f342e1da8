// CLI surface of the analysis service: `fmtree serve` argument handling,
// `sweep --emit-request` as the canonical schema emitter, the `sweep
// --connect` thin client, and the serve-specific exit-code mapping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/cli.hpp"
#include "serve/request.hpp"
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

// End to end through main_impl: a daemon thread and a client invocation in
// the same process, exactly as the CI integration job drives two processes.
// The client's rendered curve must be byte-identical to a standalone
// `fmtree sweep` of the same model and options (the served response carries
// hexfloat-exact reports, so even the last decimal agrees).
TEST(CliServe, ServedSweepRendersByteIdenticalToStandalone) {
  const std::string model = testing::TempDir() + "fmtree_cli_serve_model.fmt";
  std::ofstream(model) << kSweepModel;
  const std::string socket = testing::TempDir() + "fmtree_cli_serve.sock";
  std::filesystem::remove(socket);

  const std::vector<std::string> sweep_args = {
      "sweep", model, "--horizon", "5", "--runs", "200", "--seed", "3",
      "--frequencies", "0,2"};
  std::ostringstream standalone, standalone_err;
  ASSERT_EQ(main_impl(sweep_args, standalone, standalone_err), kExitOk);

  std::ostringstream serve_out, serve_err;
  std::thread daemon([&] {
    (void)main_impl({"serve", socket}, serve_out, serve_err);
  });
  for (int i = 0; i < 1000 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(std::filesystem::exists(socket));

  std::vector<std::string> client_args = sweep_args;
  client_args.insert(client_args.end(), {"--connect", socket});
  std::ostringstream client, client_err;
  const int code = main_impl(client_args, client, client_err);
  interrupt_control().request_stop();  // what a SIGTERM to the daemon does
  daemon.join();
  ASSERT_EQ(code, kExitOk) << client_err.str();
  EXPECT_EQ(client.str(), standalone.str());
  EXPECT_NE(serve_out.str().find("listening on"), std::string::npos);
  EXPECT_NE(serve_out.str().find("drained"), std::string::npos);
}

}  // namespace
}  // namespace fmtree::cli
