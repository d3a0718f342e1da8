// Robustness / failure-injection tests: malformed inputs must produce typed
// exceptions, never crashes or silent misbehaviour.
#include <gtest/gtest.h>

#include "../util/rng_testing.hpp"
#include "fmt/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree {
namespace {

const char* kValidModel = R"(
toplevel System;
System or Electrical Mechanical;
Electrical or Lipping Contamination;
Mechanical vot 2 B1 B2 B3;
Lipping ebe phases=6 mean=10 threshold=4 repair_cost=800 repair=grind;
Contamination ebe phases=3 mean=3 threshold=2 repair_cost=250;
B1 ebe phases=2 mean=40 threshold=2;
B2 ebe phases=2 mean=40 threshold=2;
B3 be exp(0.025);
rdep Accel factor=3 trigger=Contamination targets Lipping;
inspection Visual period=0.25 cost=35 targets Lipping Contamination B1 B2;
corrective cost=8000 delay=0.02 downtime_rate=50000;
)";

/// Every prefix of a valid model must either parse or throw a typed error.
TEST(ParserRobustness, AllPrefixesThrowTypedErrorsOnly) {
  const std::string text = kValidModel;
  for (std::size_t len = 0; len <= text.size(); len += 7) {
    const std::string prefix = text.substr(0, len);
    try {
      (void)fmt::parse_fmt(prefix);
    } catch (const Error&) {
      // ParseError / ModelError are the only acceptable outcomes.
    }
  }
  SUCCEED();
}

/// Deleting any single character must not crash the parser.
TEST(ParserRobustness, SingleCharacterDeletions) {
  const std::string text = kValidModel;
  for (std::size_t i = 0; i < text.size(); i += 3) {
    std::string mutated = text;
    mutated.erase(i, 1);
    try {
      (void)fmt::parse_fmt(mutated);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

/// Random byte substitutions (printable ASCII) must not crash.
TEST(ParserRobustness, RandomByteMutations) {
  const std::string text = kValidModel;
  CounterStream rng(2026, 0);
  for (int rep = 0; rep < 300; ++rep) {
    std::string mutated = text;
    const std::size_t pos = below(rng, mutated.size());
    mutated[pos] = static_cast<char>(32 + below(rng, 95));
    try {
      (void)fmt::parse_fmt(mutated);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

/// Statement-level shuffles must parse identically (order independence).
TEST(ParserRobustness, StatementOrderIrrelevant) {
  std::vector<std::string> statements;
  {
    std::string text = kValidModel;
    std::size_t start = 0;
    while (true) {
      const std::size_t end = text.find(';', start);
      if (end == std::string::npos) break;
      const std::string stmt = text.substr(start, end - start + 1);
      if (stmt.find_first_not_of(" \n\t") != std::string::npos)
        statements.push_back(stmt);
      start = end + 1;
    }
  }
  CounterStream rng(5, 1);
  for (int rep = 0; rep < 10; ++rep) {
    // Fisher-Yates shuffle.
    std::vector<std::string> shuffled = statements;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[below(rng, i)]);
    std::string text;
    for (const std::string& s : shuffled) text += s + "\n";
    const fmt::FaultMaintenanceTree m = fmt::parse_fmt(text);
    EXPECT_EQ(m.num_ebes(), 5u);
    EXPECT_EQ(m.rdeps().size(), 1u);
    EXPECT_EQ(m.inspections().size(), 1u);
  }
}

/// Deeply (but not absurdly) nested gates must not blow the stack.
TEST(ParserRobustness, DeepNesting) {
  std::string text = "toplevel g0;\n";
  const int depth = 2000;
  for (int i = 0; i < depth; ++i)
    text += "g" + std::to_string(i) + " or g" + std::to_string(i + 1) + ";\n";
  text += "g" + std::to_string(depth) + " be exp(1);\n";
  const fmt::FaultMaintenanceTree m = fmt::parse_fmt(text);
  EXPECT_EQ(m.structure().gates().size(), static_cast<std::size_t>(depth));
}

TEST(ParserRobustness, HugeNumbersRejectedOrHandled) {
  // Overflowing doubles parse to inf, which the validators must reject.
  EXPECT_THROW(fmt::parse_fmt("toplevel T; T or A; A be exp(1e999);"), Error);
  EXPECT_THROW(fmt::parse_fmt("toplevel T; T or A; A ebe phases=1e999 mean=5;"),
               Error);
}

TEST(FtParserRobustness, PrefixesOfStaticFormat) {
  const std::string text =
      "toplevel T;\nT or A G;\nG vot 2 B C D;\nA be exp(1);\nB be erlang(2, 1);\n"
      "C be weibull(1.5, 3);\nD be never;\n";
  for (std::size_t len = 0; len <= text.size(); ++len) {
    try {
      (void)fmt::parse_fmt(text.substr(0, len)).structure();
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace fmtree
