// CLI-level chaos: --inject-fault, resuming through the result cache and the
// self-healing surface of `fmtree sweep`. "Chaos" prefix: the ctest entry
// chaos_ambient_cli (`ctest -L chaos`) runs these cases again with a
// sweep.task fault armed from FMTREE_FAULTS, so none of them may pin a count
// that an ambient fault moves.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

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

Options sweep_opts(std::vector<double> frequencies) {
  Options o;
  o.command = Command::Sweep;
  o.horizon = 5.0;
  o.runs = 200;
  o.seed = 3;
  o.frequencies = std::move(frequencies);
  return o;
}

/// The cost-curve table with layout, status lines (cache summary, healing
/// note, warnings) and the source column removed, so a "simulated"
/// run and a "cache" replay compare equal iff the numbers match.
std::string normalized_curve(const std::string& text) {
  std::string s;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const bool status_line = [&] {
      for (const char* marker : {"cache:", "self-healing:", "fmtree:"})
        if (line.find(marker) != std::string::npos) return true;
      return false;
    }();
    if (!status_line) s += line + "\n";
  }
  for (const char* word : {"simulated", "cache"}) {
    for (std::size_t at; (at = s.find(word)) != std::string::npos;)
      s.erase(at, std::string(word).size());
  }
  std::erase_if(s, [](char c) { return c == ' ' || c == '|' || c == '-'; });
  return s;
}

/// The first line of `text` that contains `needle`, or "" when none does.
std::string row_of(const std::string& text, const std::string& needle) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.find(needle) != std::string::npos) return line;
  return "";
}

TEST(ChaosCliArgs, ParsesRobustnessFlags) {
  const Options o = parse_args(
      {"sweep", "m.fmt", "--cache-dir", "/tmp/c", "--max-retries", "5",
       "--stall-timeout", "30", "--inject-fault", "cache.write:error,p=0.05,seed=7",
       "--inject-fault", "sweep.task:error"});
  EXPECT_EQ(o.max_retries, 5u);
  EXPECT_DOUBLE_EQ(o.stall_timeout, 30.0);
  ASSERT_EQ(o.inject_faults.size(), 2u);
  EXPECT_EQ(o.inject_faults[1], "sweep.task:error");
}

TEST(ChaosCliArgs, RejectsBadRobustnessFlags) {
  // Malformed fault specs fail at parse time, not mid-run.
  EXPECT_THROW(parse_args({"sweep", "m.fmt", "--inject-fault", "nonsense"}),
               DomainError);
  EXPECT_THROW(parse_args({"sweep", "m.fmt", "--stall-timeout", "-1"}),
               DomainError);
}

TEST(ChaosCliSweep, InjectedFaultsHealAndTheCurveIsIdentical) {
  std::ostringstream clean, err;
  ASSERT_EQ(run(sweep_opts({0, 2}), {kSweepModel}, clean, err), kExitOk);

  // A spec armed before the run, as FMTREE_FAULTS arms one. The pool ignores
  // corrupt mode at sweep.task.
  const fault::Scope outer({"sweep.task:corrupt"});
  Options chaos = sweep_opts({0, 2});
  chaos.inject_faults = {"sweep.task:error,nth=1,limit=1"};
  std::ostringstream healed;
  ASSERT_EQ(run(chaos, {kSweepModel}, healed, err), kExitOk);
  EXPECT_NE(healed.str().find("self-healing:"), std::string::npos);
  EXPECT_EQ(normalized_curve(clean.str()), normalized_curve(healed.str()));
  // The run's scope died with it and put the outer spec back.
  EXPECT_TRUE(fault::fault_point("sweep.task"));
}

TEST(ChaosCliSweep, ExhaustedRetriesFailTheJobButFinishTheSweep) {
  Options o = sweep_opts({0, 2});
  o.max_retries = 0;
  o.inject_faults = {"sweep.task:error,nth=1,limit=1"};
  std::ostringstream out, err;
  const int code = run(o, {kSweepModel}, out, err);
  EXPECT_EQ(code, kExitTruncated);
  EXPECT_NE(out.str().find("(failed: injected)"), std::string::npos);
  EXPECT_NE(out.str().find("job(s) failed permanently"), std::string::npos);
  // The healthy job still delivered its row.
  EXPECT_NE(out.str().find("cost-optimal policy:"), std::string::npos);
}

TEST(ChaosCliSweep, ResumeReplaysACrashedCacheBitIdentically) {
  Options o = sweep_opts({0, 2});
  o.cache_dir = testing::TempDir() + "fmtree_cli_chaos_resume";
  std::filesystem::remove_all(o.cache_dir);

  // Run 1 "crashes": every cache publish fails, so nothing durable lands.
  Options crashing = o;
  crashing.inject_faults = {"cache.rename:error"};
  std::ostringstream first, err;
  ASSERT_EQ(run(crashing, {kSweepModel}, first, err), kExitOk);
  EXPECT_NE(first.str().find("0 hits, 2 misses"), std::string::npos);

  // Run 2 is the same command: nothing was persisted, so it recomputes — and
  // must land on the identical curve. Its cache writes succeed this time.
  std::ostringstream second;
  ASSERT_EQ(run(o, {kSweepModel}, second, err), kExitOk);
  EXPECT_NE(second.str().find("0 hits, 2 misses"), std::string::npos);
  EXPECT_EQ(normalized_curve(first.str()), normalized_curve(second.str()));

  // Run 3 replays the now-warm cache: all hits, same bits.
  std::ostringstream third;
  ASSERT_EQ(run(o, {kSweepModel}, third, err), kExitOk);
  EXPECT_NE(third.str().find("2 hits, 0 misses"), std::string::npos);
  EXPECT_EQ(normalized_curve(first.str()), normalized_curve(third.str()));

  // The two result entries are the only record of finished work.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(o.cache_dir))
    files.push_back(entry.path().filename().string());
  EXPECT_EQ(files.size(), 2u);
  for (const std::string& name : files) EXPECT_TRUE(name.ends_with(".json")) << name;
}

TEST(ChaosCliSweep, AFailedJobRunsAgainOnTheNextInvocation) {
  Options o = sweep_opts({0, 2});
  o.cache_dir = testing::TempDir() + "fmtree_cli_chaos_failed_rerun";
  std::filesystem::remove_all(o.cache_dir);

  // Run 1: one job fails permanently (no retry budget), the other completes
  // and is cached.
  Options failing = o;
  failing.max_retries = 0;
  failing.inject_faults = {"sweep.task:error,nth=1,limit=1"};
  std::ostringstream first, err;
  ASSERT_EQ(run(failing, {kSweepModel}, first, err), kExitTruncated);
  const std::string failed_row = row_of(first.str(), "(failed: injected)");
  ASSERT_FALSE(failed_row.empty()) << first.str();
  const std::string label = failed_row.substr(0, failed_row.find('|', 2));

  // Run 2, the same command without faults: the completed job replays and
  // the failed one is simulated.
  std::ostringstream second;
  ASSERT_EQ(run(o, {kSweepModel}, second, err), kExitOk);
  EXPECT_NE(second.str().find("cache: 1 hits, 1 misses"), std::string::npos)
      << second.str();
  EXPECT_NE(row_of(second.str(), label).find("simulated"), std::string::npos)
      << second.str();
}

TEST(ChaosCliSweep, ADifferentGridReplaysTheSharedJobWithoutWarning) {
  Options o = sweep_opts({0, 2});
  o.cache_dir = testing::TempDir() + "fmtree_cli_chaos_other_grid";
  std::filesystem::remove_all(o.cache_dir);
  std::ostringstream first, err;
  ASSERT_EQ(run(o, {kSweepModel}, first, err), kExitOk);

  Options other = sweep_opts({0, 4});  // shares only the no-inspection job
  other.cache_dir = o.cache_dir;
  std::ostringstream second;
  ASSERT_EQ(run(other, {kSweepModel}, second, err), kExitOk);
  EXPECT_NE(second.str().find("cache: 1 hits, 1 misses"), std::string::npos)
      << second.str();
  EXPECT_EQ(second.str().find("fmtree:"), std::string::npos) << second.str();
}

TEST(ChaosCliExact, SolverBuildFaultBecomesADiagnosticNotACrash) {
  // The solver.build site sits ahead of CTMC construction; through the full
  // entry point an injected error must land in the structured failure path
  // (a U101 diagnostic and a usage-class exit), never a crash.
  const std::string model_path =
      testing::TempDir() + "fmtree_chaos_exact_model.fmt";
  {
    std::ofstream model(model_path);
    model << "toplevel T;\nT or A;\nA be exp(0.2);\n";
  }
  std::ostringstream out, err;
  const int code = main_impl(
      {"exact", model_path, "--inject-fault", "solver.build:error"}, out, err);
  EXPECT_EQ(code, kExitUsage);
  EXPECT_NE(err.str().find("injected fault at site 'solver.build'"),
            std::string::npos);
  EXPECT_FALSE(fault::fault_point("solver.build"));  // scope disarmed
}

}  // namespace
}  // namespace fmtree::cli
