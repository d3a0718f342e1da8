#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

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

const char* kNoInspectionModel = R"(
  toplevel T;
  T or A;
  A be exp(0.2);
  corrective cost=100 delay=0;
)";

TEST(CliSweepArgs, ParsesFrequenciesAndCacheDir) {
  const Options o = parse_args({"sweep", "m.fmt", "--frequencies", "0,1,4.5",
                                "--cache-dir", "/tmp/c"});
  EXPECT_EQ(o.command, Command::Sweep);
  ASSERT_EQ(o.frequencies.size(), 3u);
  EXPECT_DOUBLE_EQ(o.frequencies[0], 0.0);
  EXPECT_DOUBLE_EQ(o.frequencies[2], 4.5);
  EXPECT_EQ(o.cache_dir, "/tmp/c");
}

TEST(CliSweepArgs, DefaultsToPaperFrequencyGrid) {
  const Options o = parse_args({"sweep", "m.fmt"});
  ASSERT_EQ(o.frequencies.size(), 10u);
  EXPECT_DOUBLE_EQ(o.frequencies.front(), 0.0);
  EXPECT_DOUBLE_EQ(o.frequencies.back(), 24.0);
  EXPECT_TRUE(o.cache_dir.empty());
}

TEST(CliSweepArgs, RejectsBadFrequencies) {
  EXPECT_THROW(parse_args({"sweep", "m", "--frequencies", "-1"}), DomainError);
  EXPECT_THROW(parse_args({"sweep", "m", "--frequencies", "abc"}), DomainError);
  EXPECT_THROW(parse_args({"sweep", "m", "--frequencies", ""}), DomainError);
}

Options sweep_opts(std::vector<double> frequencies) {
  Options o;
  o.command = Command::Sweep;
  o.horizon = 5.0;
  o.runs = 200;
  o.seed = 3;
  o.frequencies = std::move(frequencies);
  return o;
}

TEST(CliSweep, PrintsCurveAndOptimum) {
  std::ostringstream out, err;
  const int code = run(sweep_opts({0, 2, 4}), {kSweepModel}, out, err);
  EXPECT_EQ(code, kExitOk);
  const std::string text = out.str();
  EXPECT_NE(text.find("no-inspection"), std::string::npos);
  EXPECT_NE(text.find("2x-per-year"), std::string::npos);
  EXPECT_NE(text.find("4x-per-year"), std::string::npos);
  EXPECT_NE(text.find("simulated"), std::string::npos);
  EXPECT_NE(text.find("cost-optimal policy:"), std::string::npos);
  // No cache configured, so no cache summary line.
  EXPECT_EQ(text.find("cache:"), std::string::npos);
}

TEST(CliSweep, SecondRunIsServedFromTheDiskCache) {
  Options o = sweep_opts({0, 2});
  o.cache_dir = testing::TempDir() + "fmtree_cli_sweep_cache";
  std::filesystem::remove_all(o.cache_dir);  // idempotence across ctest runs
  std::ostringstream cold, err;
  ASSERT_EQ(run(o, {kSweepModel}, cold, err), kExitOk);
  EXPECT_NE(cold.str().find("simulated"), std::string::npos);
  EXPECT_NE(cold.str().find("0 hits, 2 misses"), std::string::npos);

  std::ostringstream warm;
  ASSERT_EQ(run(o, {kSweepModel}, warm, err), kExitOk);
  EXPECT_EQ(warm.str().find("simulated"), std::string::npos);
  EXPECT_NE(warm.str().find("2 hits, 0 misses"), std::string::npos);

  // Identical numbers: only the source column ("simulated" vs "cache") and
  // its padding may differ, so compare with that column and layout removed.
  const auto normalized = [](std::string s) {
    s = s.substr(0, s.find("cache:"));
    for (const char* word : {"simulated", "cache"}) {
      for (std::size_t at; (at = s.find(word)) != std::string::npos;)
        s.erase(at, std::string(word).size());
    }
    std::erase_if(s, [](char c) { return c == ' ' || c == '|' || c == '-'; });
    return s;
  };
  EXPECT_EQ(normalized(cold.str()), normalized(warm.str()));
}

TEST(CliSweep, RejectsInspectionSweepOnUninspectableModel) {
  std::ostringstream out, err;
  EXPECT_THROW(run(sweep_opts({0, 2}), {kNoInspectionModel}, out, err),
               DomainError);
  // Frequency 0 alone is fine: it just clears (absent) inspections.
  EXPECT_EQ(run(sweep_opts({0}), {kNoInspectionModel}, out, err), kExitOk);

  // At the process edge: a usage error with one diagnostic and no table.
  const std::string path = testing::TempDir() + "fmtree_cli_sweep_uninspectable.fmt";
  std::ofstream(path) << kNoInspectionModel;
  std::ostringstream edge_out, edge_err;
  EXPECT_EQ(main_impl({"sweep", path, "--frequencies", "0,2"}, edge_out, edge_err),
            kExitUsage);
  EXPECT_EQ(edge_err.str(),
            "fmtree: error[U101]: model has no inspection modules to sweep\n");
  EXPECT_EQ(edge_out.str(), "");
}

TEST(CliSweep, TimeoutTruncatesWithExitOne) {
  Options o = sweep_opts({0, 2, 4});
  o.runs = 200000;  // far more than a 1 ms budget allows
  o.timeout = 0.001;
  std::ostringstream out, err;
  const int code = run(o, {kSweepModel}, out, err);
  EXPECT_EQ(code, kExitTruncated);
  EXPECT_NE(out.str().find("NOTE: sweep truncated"), std::string::npos);
  EXPECT_NE(out.str().find("(interrupted)"), std::string::npos);
}

// A healed job's trajectories count under batch.*, as a first attempt's do:
// the EI-joint cost curve with its first chunk failed names each fact once.
// Pins exact counts, so it is no Chaos case: those also run under ambient
// faults.
TEST(CliSweep, AHealedJobCountsUnderBatchAlone) {
  const std::string model = std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt";
  const std::string metrics = testing::TempDir() + "fmtree_cli_sweep_heal_metrics.json";
  const std::vector<std::string> args = {"sweep", model, "--horizon", "20", "--runs",
                                         "2000", "--seed", "1", "--frequencies", "0,2,6"};
  std::ostringstream clean, healed, err;
  ASSERT_EQ(main_impl(args, clean, err), kExitOk) << err.str();
  std::vector<std::string> chaos = args;
  chaos.insert(chaos.end(),
               {"--inject-fault", "sweep.task:error,nth=1", "--metrics", metrics});
  ASSERT_EQ(main_impl(chaos, healed, err), kExitOk) << err.str();
  // The healing note is the one line the fault adds.
  const std::string note = "self-healing: 1 retry recovered transient failures\n";
  std::string text = healed.str();
  const std::size_t at = text.find(note);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.erase(at, note.size()), clean.str());

  const json::Value doc = json::parse(read_text_file(metrics));
  const json::Value& counters = *doc.find("counters");
  EXPECT_EQ(counters.find("sweep.retries")->as_u64(), 1u);
  EXPECT_EQ(counters.find("batch.trajectories")->as_u64(), 6000u);
  EXPECT_EQ(counters.find("batch.events")->as_u64(), 632926u);
  for (const auto& [name, value] : counters.members) {
    if (name.starts_with("smc.")) {
      EXPECT_EQ(value.as_u64(), 0u) << name;
    }
  }
}

// Joints without jitter share one cache key: the in-process corridor
// simulates one joint, counts all eight as jobs and as fleet joints, and
// starts no service.
TEST(CliFleet, IdenticalJointsRunOnceAndAllCount) {
  const std::string model = std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt";
  const std::string metrics = testing::TempDir() + "fmtree_cli_fleet_twins_metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(main_impl({"fleet", model, "--joints", "8", "--jitter", "0", "--runs", "500",
                       "--metrics", metrics},
                      out, err),
            kExitOk)
      << err.str();
  const json::Value doc = json::parse(read_text_file(metrics));
  const json::Value& counters = *doc.find("counters");
  EXPECT_EQ(counters.find("fleet.joints")->as_u64(), 8u);
  EXPECT_EQ(counters.find("batch.jobs")->as_u64(), 8u);
  EXPECT_EQ(counters.find("batch.jobs_simulated")->as_u64(), 1u);
  EXPECT_EQ(counters.find("batch.trajectories")->as_u64(), 500u);
  EXPECT_EQ(counters.find("serve.requests")->as_u64(), 0u);
}

}  // namespace
}  // namespace fmtree::cli
