// Flag scopes: each command accepts exactly the flags it honours. The
// expected (command, flag) pairs are literal data here, not read from the
// CLI's flag table, so the test pins the scopes themselves.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "cli_testing.hpp"

namespace fmtree::cli {
namespace {

/// Every command, with positional arguments it parses.
const std::vector<std::vector<std::string>> kInvocations = {
    {"check", "m.fmt"},   {"analyze", "m.fmt"},   {"exact", "m.fmt"},
    {"dot", "m.fmt"},     {"cutsets", "m.fmt"},   {"compare", "a.fmt", "b.fmt"},
    {"sweep", "m.fmt"},   {"fleet", "m.fmt"},     {"lint-policy", "p.mpl"},
    {"serve", "s.sock"},
};

/// Every flag, with a value it accepts ("" for a switch).
const std::vector<std::pair<std::string, std::string>> kFlagValues = {
    {"--horizon", "5"},         {"--runs", "100"},
    {"--seed", "3"},            {"--threads", "2"},
    {"--confidence", "0.9"},    {"--quantiles", "0.5"},
    {"--timeout", "1"},         {"--state-cap", "64"},
    {"--no-fallback", ""},      {"--json-errors", ""},
    {"--metrics", "m.json"},    {"--trace", "t.json"},
    {"--progress", ""},         {"--frequencies", "0,2"},
    {"--policy", "p.mpl"},      {"--cache-dir", "c"},
    {"--max-retries", "1"},     {"--stall-timeout", "5"},
    {"--inject-fault", "sweep.task:error"},
    {"--queue-limit", "8"},     {"--model-root", "r"},
    {"--connect", "s.sock"},    {"--emit-request", ""},
    {"--joints", "3"},          {"--fleet-seed", "4"},
    {"--jitter", "0.2"},        {"--coupling", "0.1"},
    {"--spacing-km", "2"},      {"--crews", "1"},
    {"--worst", "2"},           {"--calibrate", "i.csv"},
    {"--generate-incidents", "i.csv"},
    {"--observe-years", "5"},
};

/// The flags each command honours.
const std::map<std::string, std::set<std::string>> kAccepted = {
    {"check", {"--json-errors", "--metrics", "--trace"}},
    {"dot", {"--json-errors", "--metrics", "--trace"}},
    {"cutsets", {"--horizon", "--json-errors", "--metrics", "--trace"}},
    {"analyze",
     {"--horizon", "--runs", "--seed", "--threads", "--confidence", "--quantiles",
      "--timeout", "--progress", "--json-errors", "--metrics", "--trace"}},
    {"exact",
     {"--horizon", "--runs", "--seed", "--threads", "--confidence", "--quantiles",
      "--timeout", "--progress", "--json-errors", "--metrics", "--trace", "--state-cap",
      "--no-fallback", "--inject-fault"}},
    {"compare",
     {"--horizon", "--runs", "--seed", "--threads", "--confidence", "--timeout",
      "--json-errors", "--metrics", "--trace"}},
    {"sweep",
     {"--horizon", "--runs", "--seed", "--threads", "--confidence", "--timeout",
      "--progress", "--json-errors", "--metrics", "--trace", "--frequencies", "--policy",
      "--cache-dir", "--max-retries", "--stall-timeout", "--inject-fault", "--connect",
      "--emit-request"}},
    {"fleet",
     {"--horizon", "--runs", "--seed", "--threads", "--confidence", "--timeout",
      "--progress", "--json-errors", "--metrics", "--trace", "--policy", "--cache-dir",
      "--max-retries", "--stall-timeout", "--inject-fault", "--connect", "--emit-request",
      "--joints", "--fleet-seed", "--jitter", "--coupling", "--spacing-km", "--crews",
      "--worst", "--calibrate", "--generate-incidents", "--observe-years"}},
    {"lint-policy", {"--json-errors"}},
    {"serve",
     {"--threads", "--timeout", "--progress", "--json-errors", "--metrics", "--trace",
      "--cache-dir", "--max-retries", "--stall-timeout", "--inject-fault",
      "--queue-limit", "--model-root"}},
};

TEST(CliFlagScopes, EachCommandAcceptsExactlyTheFlagsItHonours) {
  std::size_t pairs = 0, accepted = 0;
  for (const std::vector<std::string>& invocation : kInvocations) {
    const std::string& command = invocation[0];
    for (const auto& [flag, value] : kFlagValues) {
      ++pairs;
      std::vector<std::string> args = invocation;
      args.push_back(flag);
      if (!value.empty()) args.push_back(value);
      if (kAccepted.at(command).contains(flag)) {
        ++accepted;
        // The incident modes need their observation window.
        if (flag == "--calibrate" || flag == "--generate-incidents")
          args.insert(args.end(), {"--observe-years", "5"});
        EXPECT_NO_THROW(parse_args(args)) << command << " " << flag;
        continue;
      }
      // Refused by the parser, so before any work (a `serve` that parsed
      // would listen for ever): exit 2, one line naming flag and command.
      const std::string refused = refusal(args);
      EXPECT_FALSE(refused.empty()) << command << " accepts " << flag;
      if (refused.empty()) continue;
      std::ostringstream out, err;
      EXPECT_EQ(main_impl(args, out, err), kExitUsage) << command << " " << flag;
      EXPECT_EQ(err.str(), "fmtree: domain error: flag " + flag + " does not apply to " +
                               command + "\n");
      EXPECT_EQ(out.str(), "");
    }
  }
  EXPECT_EQ(pairs, 330u);
  EXPECT_EQ(accepted, 102u);
}

}  // namespace
}  // namespace fmtree::cli
