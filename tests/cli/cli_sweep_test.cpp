#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "cli/cli.hpp"
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

}  // namespace
}  // namespace fmtree::cli
