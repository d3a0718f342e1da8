#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli_testing.hpp"
#include "util/error.hpp"

namespace fmtree::cli {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

const char* kMarkovianModel = R"(
  toplevel T;
  T or A B;
  A be exp(0.2);
  B be exp(0.3);
  corrective cost=0 delay=0;
)";

// ---- Argument parsing -------------------------------------------------------

TEST(CliArgs, ParsesCommandsAndFlags) {
  const Options o = parse_args({"analyze", "m.fmt", "--horizon", "25", "--runs",
                                "500", "--seed", "9", "--threads", "2",
                                "--confidence", "0.9", "--quantiles", "0.1,0.9"});
  EXPECT_EQ(o.command, Command::Analyze);
  EXPECT_EQ(o.inputs, std::vector<std::string>{"m.fmt"});
  EXPECT_DOUBLE_EQ(o.horizon, 25);
  EXPECT_EQ(o.runs, 500u);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.threads, 2u);
  EXPECT_DOUBLE_EQ(o.confidence, 0.9);
  ASSERT_EQ(o.quantiles.size(), 2u);
  EXPECT_DOUBLE_EQ(o.quantiles[1], 0.9);
}

TEST(CliArgs, DefaultsApplied) {
  const Options o = parse_args({"check", "m.fmt"});
  EXPECT_EQ(o.command, Command::Check);
  EXPECT_DOUBLE_EQ(o.horizon, 10);
  EXPECT_EQ(o.runs, 10000u);
  EXPECT_TRUE(o.quantiles.empty());
}

TEST(CliArgs, AllCommandsRecognized) {
  EXPECT_EQ(parse_args({"check", "m"}).command, Command::Check);
  EXPECT_EQ(parse_args({"analyze", "m"}).command, Command::Analyze);
  EXPECT_EQ(parse_args({"exact", "m"}).command, Command::Exact);
  EXPECT_EQ(parse_args({"dot", "m"}).command, Command::Dot);
  EXPECT_EQ(parse_args({"cutsets", "m"}).command, Command::CutSets);
}

TEST(CliArgs, RejectsBadUsage) {
  EXPECT_THROW(parse_args({}), DomainError);
  EXPECT_THROW(parse_args({"frobnicate", "m"}), DomainError);
  EXPECT_THROW(parse_args({"check"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--bogus", "1"}), DomainError);
  // Each value check on a command that accepts the flag.
  EXPECT_EQ(refusal({"cutsets", "--horizon"}),
            "domain error: flag --horizon needs a value");
  EXPECT_EQ(refusal({"cutsets", "m", "--horizon"}),
            "domain error: flag --horizon needs a value");
  EXPECT_EQ(refusal({"cutsets", "m", "--horizon", "abc"}),
            "domain error: invalid --horizon value 'abc'");
  EXPECT_EQ(refusal({"cutsets", "m", "--horizon", "0"}),
            "domain error: --horizon must be positive and finite");
  EXPECT_EQ(refusal({"analyze", "m", "--runs", "0"}),
            "domain error: --runs must be positive");
  EXPECT_EQ(refusal({"analyze", "m", "--runs", "1.5"}),
            "domain error: --runs must be a nonnegative integer");
  EXPECT_EQ(refusal({"analyze", "m", "--confidence", "1"}),
            "domain error: --confidence must lie in (0,1)");
  EXPECT_EQ(refusal({"analyze", "m", "--quantiles", "2"}),
            "domain error: --quantiles must lie in [0,1]");
  EXPECT_EQ(refusal({"analyze", "m", "--quantiles", ""}),
            "domain error: --quantiles needs at least one value");
}

// ---- Command execution ---------------------------------------------------------

Options opts(Command c, std::uint64_t runs = 2000) {
  Options o;
  o.command = c;
  o.runs = runs;
  o.horizon = 10;
  o.seed = 5;
  return o;
}

TEST(CliRun, CheckSummarizesModel) {
  std::ostringstream out, err;
  EXPECT_EQ(run(opts(Command::Check), {kModel}, out, err), 0);
  EXPECT_NE(out.str().find("model OK"), std::string::npos);
  EXPECT_NE(out.str().find("leaves:              2"), std::string::npos);
  EXPECT_NE(out.str().find("inspection modules:  1"), std::string::npos);
}

TEST(CliRun, AnalyzeReportsKpis) {
  Options o = opts(Command::Analyze);
  o.quantiles = {0.5};
  std::ostringstream out, err;
  EXPECT_EQ(run(o, {kModel}, out, err), 0);
  EXPECT_NE(out.str().find("reliability"), std::string::npos);
  EXPECT_NE(out.str().find("cost breakdown"), std::string::npos);
  EXPECT_NE(out.str().find("time-to-failure quantiles"), std::string::npos);
}

TEST(CliRun, ExactOnMarkovianModel) {
  std::ostringstream out, err;
  EXPECT_EQ(run(opts(Command::Exact), {kMarkovianModel}, out, err), 0);
  EXPECT_NE(out.str().find("MTTF = 2"), std::string::npos);  // 1/(0.2+0.3)
  EXPECT_NE(out.str().find("E[#failures within 10] = 5"), std::string::npos);
}

TEST(CliRun, ExactRejectsNonMarkovian) {
  std::ostringstream out, err;
  EXPECT_THROW(run(opts(Command::Exact), {kModel}, out, err),
               UnsupportedModelError);
}

TEST(CliRun, DotEmitsGraph) {
  std::ostringstream out, err;
  EXPECT_EQ(run(opts(Command::Dot), {kModel}, out, err), 0);
  EXPECT_NE(out.str().find("digraph"), std::string::npos);
}

TEST(CliRun, CutsetsListsAndRanks) {
  std::ostringstream out, err;
  EXPECT_EQ(run(opts(Command::CutSets), {kModel}, out, err), 0);
  EXPECT_NE(out.str().find("2 minimal cut sets"), std::string::npos);
  EXPECT_NE(out.str().find("Birnbaum"), std::string::npos);
}

TEST(CliRun, ParseErrorsPropagate) {
  std::ostringstream out, err;
  EXPECT_THROW(run(opts(Command::Check), {"not a model"}, out, err), Error);
}

TEST(CliMain, ReportsMissingFileOnStderr) {
  std::ostringstream out, err;
  const int rc = main_impl({"check", "/nonexistent/path.fmt"}, out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliArgs, CompareTakesTwoModels) {
  const Options o = parse_args({"compare", "a.fmt", "b.fmt", "--runs", "100"});
  EXPECT_EQ(o.command, Command::Compare);
  EXPECT_EQ(o.inputs, (std::vector<std::string>{"a.fmt", "b.fmt"}));
  EXPECT_THROW(parse_args({"compare", "a.fmt"}), DomainError);
  EXPECT_THROW(parse_args({"compare", "a.fmt", "--runs", "5"}), DomainError);
}

TEST(CliRun, CompareDetectsBetterPolicy) {
  const std::string sparse = std::string(kModel);
  std::string frequent = sparse;
  const std::string from = "inspection I period=0.5 cost=20 targets A;";
  frequent.replace(frequent.find(from), from.size(),
                   "inspection I period=0.1 cost=20 targets A;");
  Options o = opts(Command::Compare, 4000);
  std::ostringstream out, err;
  EXPECT_EQ(run(o, {sparse, frequent}, out, err), 0);
  EXPECT_NE(out.str().find("paired comparison"), std::string::npos);
  EXPECT_NE(out.str().find("failures"), std::string::npos);
}

TEST(CliRun, CompareNeedsTwoModelTexts) {
  std::ostringstream out, err;
  EXPECT_THROW(run(opts(Command::Compare), {kModel}, out, err), DomainError);
}

TEST(CliMain, ReportsUsageErrors) {
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({}, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace fmtree::cli
