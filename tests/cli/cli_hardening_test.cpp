// CLI failure semantics: stable exit codes, --json-errors, the exact->SMC
// fallback, and truncation reporting. Exit codes are part of the scripting
// contract (DESIGN.md, "Failure semantics") — pin them.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_testing.hpp"
#include "util/error.hpp"

namespace fmtree::cli {
namespace {

const char* kBrokenModel =
    "toplevel T;\n"
    "T or A B;\n"
    "A ebe phases=0 mean=5;\n"   // bad attribute
    "B foo bar;\n"               // unknown statement
    "T ebe phases=2 mean=5;\n";  // duplicate

const char* kMarkovian =
    "toplevel T;\n"
    "T or A B;\n"
    "A be exp(0.2);\n"
    "B be exp(0.3);\n"
    "corrective cost=0 delay=0;\n";

const char* kSimModel =
    "toplevel T;\n"
    "T or A B;\n"
    "A ebe phases=3 mean=5 threshold=2 repair_cost=100;\n"
    "B be exp(0.05);\n"
    "inspection I period=0.5 cost=20 targets A;\n"
    "corrective cost=5000 delay=0;\n";

/// Writes a model under the test's temporary directory and returns the path.
std::string write_model(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "fmtree_cli_hardening_" + name + ".fmt";
  std::ofstream f(path);
  f << text;
  return path;
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

TEST(CliArgs, HardeningFlagsParsed) {
  const Options o = parse_args({"exact", "m.fmt", "--timeout", "2.5", "--state-cap",
                                "4096", "--json-errors", "--no-fallback"});
  EXPECT_DOUBLE_EQ(o.timeout, 2.5);
  EXPECT_EQ(o.state_cap, 4096u);
  EXPECT_TRUE(o.json_errors);
  EXPECT_TRUE(o.no_fallback);
  const Options defaults = parse_args({"check", "m.fmt"});
  EXPECT_DOUBLE_EQ(defaults.timeout, 0.0);
  EXPECT_EQ(defaults.state_cap, 1u << 20);
  EXPECT_FALSE(defaults.json_errors);
  EXPECT_FALSE(defaults.no_fallback);
}

TEST(CliArgs, HardeningFlagsValidated) {
  EXPECT_EQ(refusal({"analyze", "m", "--timeout", "-1"}),
            "domain error: --timeout must be nonnegative");
  EXPECT_EQ(refusal({"exact", "m", "--state-cap", "0"}),
            "domain error: --state-cap must be positive");
  EXPECT_EQ(refusal({"exact", "m", "--state-cap", "1.5"}),
            "domain error: --state-cap must be a nonnegative integer");
}

TEST(CliArgs, FlagsMayPrecedeTheModelPath) {
  // `fmtree check --json-errors broken.fmt` is the documented invocation;
  // flag/positional order must not matter.
  const Options o = parse_args({"check", "--json-errors", "m.fmt"});
  EXPECT_TRUE(o.json_errors);
  EXPECT_EQ(o.inputs, std::vector<std::string>{"m.fmt"});
  const Options c = parse_args({"compare", "--runs", "7", "a.fmt", "b.fmt"});
  EXPECT_EQ(c.inputs, (std::vector<std::string>{"a.fmt", "b.fmt"}));
  EXPECT_EQ(c.runs, 7u);
  EXPECT_THROW(parse_args({"check", "--json-errors"}), DomainError);
  EXPECT_THROW(parse_args({"compare", "a.fmt", "--runs", "7"}), DomainError);
  EXPECT_THROW(parse_args({"check", "a.fmt", "b.fmt"}), DomainError);
}

TEST(CliExit, DiagnosticsExitThreeAndListEveryError) {
  const std::string path = write_model("broken", kBrokenModel);
  std::ostringstream out, err;
  const int rc = main_impl({"check", path}, out, err);
  EXPECT_EQ(rc, kExitDiagnostics);
  // All three problems from one pass, each with a stable code tag.
  EXPECT_EQ(count_occurrences(err.str(), "error["), 3u);
  EXPECT_NE(err.str().find("P104"), std::string::npos);
  EXPECT_NE(err.str().find("duplicate"), std::string::npos);
}

TEST(CliExit, JsonErrorsEmitMachineReadableDiagnostics) {
  const std::string path = write_model("broken_json", kBrokenModel);
  std::ostringstream out, err;
  const int rc = main_impl({"check", path, "--json-errors"}, out, err);
  EXPECT_EQ(rc, kExitDiagnostics);
  const std::string json = err.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(count_occurrences(json, "\"code\":"), 3u);
  EXPECT_NE(json.find("\"line\":4"), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
}

TEST(CliExit, JsonErrorsCoverIoFailuresToo) {
  std::ostringstream out, err;
  const int rc = main_impl({"check", "/nonexistent/x.fmt", "--json-errors"}, out, err);
  EXPECT_EQ(rc, kExitUsage);  // pinned: missing file stays exit 2
  EXPECT_NE(err.str().find("\"code\":\"U101\""), std::string::npos);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

// A directory opens like a file but reads nothing: every reader reports it
// like a missing file instead of handing on empty text.
const std::string kDirectory = std::string(FMTREE_SOURCE_DIR) + "/examples";

TEST(CliExit, ModelPathNamingADirectoryExitsTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"check", kDirectory, "--json-errors"}, out, err), kExitUsage);
  EXPECT_NE(err.str().find("\"code\":\"U101\""), std::string::npos) << err.str();
}

TEST(CliExit, SweepPolicyNamingADirectoryExitsTwo) {
  const std::string path = write_model("dir_policy", kSimModel);
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"sweep", path, "--policy", kDirectory, "--runs", "10"}, out, err),
            kExitUsage);
  EXPECT_NE(err.str().find("U101"), std::string::npos) << err.str();
  EXPECT_EQ(out.str().find("scripted"), std::string::npos) << out.str();
}

TEST(CliExit, LintPolicyOfADirectoryFails) {
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"lint-policy", kDirectory}, out, err), kExitDiagnostics);
  EXPECT_NE(out.str().find("FAILED (unreadable)"), std::string::npos) << out.str();
}

TEST(CliExit, CalibrateRefusesIncidentRowsTheDatabaseWouldRefuse) {
  // A negative time, a NaN time and an empty mode are malformed rows of the
  // incident database whatever the fleet: the streaming calibration must
  // stop at the first with a row-numbered input error (exit 2, U101)
  // instead of printing a rate table.
  const std::string csv = testing::TempDir() + "fmtree_cli_hardening_bad_incidents.csv";
  {
    std::ofstream f(csv);
    f << "asset_id,time,failure_mode\n"
         "0,-3.5,ballast_wear\n"
         "1,nan,ballast_wear\n"
         "2,1.0,\n"
         "3,2.0,fishplate_crack\n";
  }
  const std::string model = std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt";
  std::ostringstream out, err;
  const int rc = main_impl({"fleet", model, "--joints", "10", "--observe-years", "5",
                            "--calibrate", csv, "--json-errors"},
                           out, err);
  EXPECT_EQ(rc, kExitUsage);
  EXPECT_NE(err.str().find("\"code\":\"U101\""), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("row 1"), std::string::npos) << err.str();
  EXPECT_EQ(out.str().find("per-mode failure rates"), std::string::npos) << out.str();
}

TEST(CliExit, ModelDiagnosticsAlsoExitThree) {
  const std::string path = write_model(
      "orphan", "toplevel T;\nT or A;\nA be exp(1);\nOrphan be exp(1);\n");
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"check", path}, out, err), kExitDiagnostics);
  EXPECT_NE(err.str().find("M103"), std::string::npos);
}

TEST(CliExit, ExactFallsBackToSmcWhenStateCapExceeded) {
  const std::string path = write_model("fallback", kMarkovian);
  std::ostringstream out, err;
  const int rc =
      main_impl({"exact", path, "--state-cap", "2", "--runs", "500"}, out, err);
  EXPECT_EQ(rc, kExitOk);
  EXPECT_NE(out.str().find("falling back to Monte-Carlo"), std::string::npos);
  EXPECT_NE(out.str().find("reliability"), std::string::npos);
}

TEST(CliExit, ExactNoFallbackExitsFour) {
  const std::string path = write_model("nofallback", kMarkovian);
  std::ostringstream out, err;
  const int rc =
      main_impl({"exact", path, "--state-cap", "2", "--no-fallback"}, out, err);
  EXPECT_EQ(rc, kExitResourceLimit);
  EXPECT_NE(err.str().find("R101"), std::string::npos);
  EXPECT_NE(err.str().find("max_states"), std::string::npos);
}

TEST(CliExit, ExactWithinCapStillExact) {
  const std::string path = write_model("exact_ok", kMarkovian);
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"exact", path}, out, err), kExitOk);
  EXPECT_NE(out.str().find("MTTF = 2"), std::string::npos);
}

TEST(CliExit, UnsupportedModelKeepsExitTwo) {
  // Non-Markovian exact is a modelling problem, not a resource limit: no
  // fallback, historic exit code 2.
  const std::string path = write_model("nonmarkov", kSimModel);
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({"exact", path}, out, err), kExitUsage);
}

TEST(CliExit, TimeoutTruncatesAnalyzeWithExitOne) {
  // A budget far too small for 1M trajectories: the run starts (the first
  // poll precedes the deadline) and is then cut, yielding the truncated
  // exit code and an explicit notice over the exact prefix.
  const std::string path = write_model("timeout", kSimModel);
  std::ostringstream out, err;
  const int rc = main_impl({"analyze", path, "--runs", "1000000", "--timeout",
                            "0.25", "--threads", "2", "--seed", "3"},
                           out, err);
  EXPECT_EQ(rc, kExitTruncated);
  EXPECT_NE(out.str().find("truncated (deadline)"), std::string::npos);
  EXPECT_NE(out.str().find("reliability"), std::string::npos);
}

TEST(CliExit, TimeoutTruncatesCompareWithExitOne) {
  // The variants run block by block, so a stop leaves the pairs completed
  // so far: the report covers them, with a notice, and exit code 1.
  const std::string model = std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt";
  std::ostringstream out, err;
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = main_impl({"compare", model, model, "--horizon", "10", "--runs",
                            "4000000", "--timeout", "1", "--threads", "2"},
                           out, err);
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(rc, kExitTruncated) << err.str();
  EXPECT_LT(took.count(), 1.5);
  EXPECT_NE(out.str().find("paired comparison"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("NOTE: run truncated (deadline)"), std::string::npos)
      << out.str();
}

TEST(CliExit, TimeoutAndInterruptStopExactWithoutANumber) {
  // The EI-joint without inspections and with zero corrective delay has
  // about 1M CTMC states, which `exact` solves in seconds. The state search
  // and both uniformization loops poll the stop handle: a stop prints a
  // NOTE and no number, skips the Monte-Carlo fallback and exits 1.
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt");
  std::string model, line;
  while (std::getline(file, line))
    if (!line.starts_with("inspection ")) model += line + "\n";
  model.replace(model.find("delay=0.02"), 10, "delay=0");
  const std::string path = write_model("exact_stop", model);
  for (const bool interrupt : {false, true}) {
    std::vector<std::string> args = {"exact", path, "--horizon", "20"};
    if (!interrupt) args.insert(args.end(), {"--timeout", "1"});
    std::thread sigint;
    if (interrupt) {
      sigint = std::thread([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        interrupt_control().request_stop();
      });
    }
    std::ostringstream out, err;
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = main_impl(args, out, err);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
    if (sigint.joinable()) sigint.join();
    EXPECT_EQ(rc, kExitTruncated) << err.str() << out.str();
    EXPECT_LT(took.count(), 1.5);
    EXPECT_EQ(out.str(), std::string("NOTE: exact analysis stopped (") +
                             (interrupt ? "interrupted" : "deadline") +
                             ") before a result.\n");
  }
}

/// The whole content of the file at `path`.
std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(CliExit, StoppedIncidentGenerationHoldsWholeJoints) {
  // A stop ends the generation after whole joints in joint order: the file
  // equals a complete generation of the joint count the output reports.
  const std::string model = std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt";
  const std::string cut = testing::TempDir() + "fmtree_cli_cut_incidents.csv";
  const std::string whole = testing::TempDir() + "fmtree_cli_whole_incidents.csv";
  const std::vector<std::string> fleet = {"fleet", model, "--observe-years", "40",
                                          "--fleet-seed", "9", "--generate-incidents"};
  std::vector<std::string> args = fleet;
  args.insert(args.end(), {cut, "--joints", "1000000", "--timeout", "0.2"});
  std::ostringstream out, err;
  ASSERT_EQ(main_impl(args, out, err), kExitTruncated) << err.str() << out.str();
  const std::string text = out.str();
  const std::size_t from = text.find(" from ");
  ASSERT_NE(from, std::string::npos) << text;
  const std::string joints = text.substr(from + 6, text.find(' ', from + 6) - from - 6);
  EXPECT_NE(text.find("NOTE: incident generation truncated (deadline) after " + joints +
                      " of 1000000 joints"),
            std::string::npos)
      << text;

  args = fleet;
  args.insert(args.end(), {whole, "--joints", joints});
  std::ostringstream whole_out, whole_err;
  ASSERT_EQ(main_impl(args, whole_out, whole_err), kExitOk) << whole_err.str();
  EXPECT_EQ(read_file(cut), read_file(whole));
}

TEST(CliExit, PeriodTooSmallToAdvanceTheClockFailsAtOnce) {
  // The EI-joint inspected every 1e-17 from t = 1, where 1 + 1e-17 == 1.
  // The trajectory pool polls --timeout only between trajectories, so a stalled
  // clock would never return; the kernel refuses the period up front.
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt");
  std::ostringstream text;
  text << file.rdbuf();
  std::string model = text.str();
  const std::string schedule = "period=0.25 offset=0.25";
  ASSERT_NE(model.find(schedule), std::string::npos);
  model.replace(model.find(schedule), schedule.size(), "period=1e-17 offset=1");
  const std::string path = write_model("stall", model);
  std::ostringstream out, err;
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = main_impl({"analyze", path, "--runs", "16", "--threads", "1",
                            "--timeout", "2"},
                           out, err);
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(rc, kExitUsage);
  EXPECT_LT(took.count(), 1.0);
  EXPECT_NE(err.str().find("'current-4x-inspection'"), std::string::npos) << err.str();
}

TEST(CliExit, InfiniteHorizonIsRefusedBeforeAnyWork) {
  // A trajectory with an infinite horizon never ends, and neither --timeout
  // nor SIGTERM is polled inside one: the CLI refuses the flag up front.
  const std::string path = write_model("inf_horizon", kSimModel);
  const std::string csv = testing::TempDir() + "fmtree_cli_hardening_inf.csv";
  const std::vector<std::vector<std::string>> runs = {
      {"analyze", path, "--horizon", "inf", "--runs", "10"},
      {"compare", path, path, "--horizon", "inf", "--runs", "2"},
      {"fleet", path, "--joints", "1", "--observe-years", "inf", "--generate-incidents",
       csv}};
  for (const std::vector<std::string>& args : runs) {
    std::ostringstream out, err;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(main_impl(args, out, err), kExitUsage) << args[0];
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 1.0) << args[0];
    EXPECT_NE(err.str().find("finite"), std::string::npos) << err.str();
  }
}

TEST(CliExit, InterruptControlIsProcessWideSingleton) {
  EXPECT_EQ(&interrupt_control(), &interrupt_control());
  interrupt_control().request_stop();
  EXPECT_TRUE(interrupt_control().stop_requested());
  interrupt_control().reset();
  EXPECT_FALSE(interrupt_control().stop_requested());
}

}  // namespace
}  // namespace fmtree::cli
