// Fuzz-style robustness: the error-recovery parsers must never throw, crash
// or hand back a half-built model — malformed input always becomes typed
// diagnostics. Runs over a committed corpus of adversarial inputs
// (tests/ft/corpus/) plus a deterministic randomized mutator, and is part of
// the sanitizer CI job, so any UB in the recovery paths fails loudly.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../util/rng_testing.hpp"
#include "fmt/parser.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree {
namespace {

std::filesystem::path corpus_dir() {
  for (const char* candidate : {"tests/ft/corpus", "../tests/ft/corpus",
                                FMTREE_SOURCE_DIR "/tests/ft/corpus"}) {
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  ADD_FAILURE() << "cannot locate tests/ft/corpus";
  return {};
}

std::vector<std::pair<std::string, std::string>> load_corpus() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".fmt") continue;
    std::ifstream f(entry.path());
    std::ostringstream text;
    text << f.rdbuf();
    out.emplace_back(entry.path().filename().string(), text.str());
  }
  return out;
}

/// Every diagnostic must carry a stable code: one category letter and a
/// number (e.g. "P104"). Crash-shaped output (empty code, free text) fails.
/// Lexical and syntax diagnostics must also point into `text`: a line from 1
/// to one past the last line, and a column at most one past that line's end
/// (column 0 means "unknown").
void expect_well_formed(const Diagnostics& diags, const std::string& text) {
  std::vector<std::size_t> line_lengths{0};
  for (const char c : text) {
    if (c == '\n')
      line_lengths.push_back(0);
    else
      ++line_lengths.back();
  }
  if (text.ends_with('\n')) line_lengths.pop_back();  // no line after the last '\n'
  for (const Diagnostic& d : diags.all()) {
    ASSERT_GE(d.code.size(), 2u) << text;
    EXPECT_NE(std::string("LPMNRUX").find(d.code[0]), std::string::npos)
        << text << ": code " << d.code;
    for (std::size_t i = 1; i < d.code.size(); ++i)
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(d.code[i])))
          << text << ": code " << d.code;
    EXPECT_FALSE(d.message.empty()) << text;
    if (d.code[0] != 'L' && d.code[0] != 'P') continue;
    ASSERT_GE(d.loc.line, 1u) << format_diagnostic(d);
    ASSERT_LE(d.loc.line, line_lengths.size() + 1) << format_diagnostic(d);
    const std::size_t length =
        d.loc.line <= line_lengths.size() ? line_lengths[d.loc.line - 1] : 0;
    EXPECT_LE(d.loc.column, length + 1) << format_diagnostic(d);
  }
}

TEST(FuzzCorpus, EveryCorpusFileYieldsOnlyTypedDiagnostics) {
  const auto corpus = load_corpus();
  ASSERT_GE(corpus.size(), 10u) << "corpus went missing";
  for (const auto& [name, text] : corpus) {
    SCOPED_TRACE(name);
    fmt::FmtParseResult r;
    ASSERT_NO_THROW(r = fmt::parse_fmt_collect(text));
    EXPECT_EQ(r.model.has_value(), !r.diagnostics.has_errors());
    expect_well_formed(r.diagnostics, text);
  }
}

TEST(FuzzCorpus, MixedErrorFileSurfacesMultipleCategoriesInOnePass) {
  std::ifstream f(corpus_dir() / "mixed_errors.fmt");
  std::ostringstream text;
  text << f.rdbuf();
  const fmt::FmtParseResult r = fmt::parse_fmt_collect(text.str());
  EXPECT_FALSE(r.model.has_value());
  bool lexical = false, syntax = false;
  for (const Diagnostic& d : r.diagnostics.all()) {
    lexical |= d.code[0] == 'L';
    syntax |= d.code[0] == 'P';
  }
  EXPECT_TRUE(lexical);
  EXPECT_TRUE(syntax);
  EXPECT_GE(r.diagnostics.error_count(), 4u);
}

const char* kSeedModel = R"(
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

/// Deterministic document mutator: byte substitutions, deletions,
/// duplications and statement shuffles/drops, seeded per repetition.
std::string mutate(const std::string& text, CounterStream& rng) {
  std::string out = text;
  const std::uint64_t ops = 1 + below(rng, 4);
  for (std::uint64_t op = 0; op < ops && !out.empty(); ++op) {
    switch (below(rng, 5)) {
      case 0:  // substitute a printable byte
        out[below(rng, out.size())] = static_cast<char>(32 + below(rng, 95));
        break;
      case 1:  // delete a byte
        out.erase(below(rng, out.size()), 1);
        break;
      case 2:  // duplicate a span
        {
          const std::size_t pos = below(rng, out.size());
          const std::size_t len =
              std::min<std::size_t>(1 + below(rng, 12), out.size() - pos);
          out.insert(pos, out.substr(pos, len));
        }
        break;
      case 3:  // drop everything after a random ';'
        {
          const std::size_t cut = out.find(';', below(rng, out.size()));
          if (cut != std::string::npos) out.resize(cut + 1);
        }
        break;
      case 4:  // splice a random token
        {
          static const char* kTokens[] = {";", "=", "(", ")", "toplevel", "ebe",
                                          "1e999", "\"", "#", "vot", "targets"};
          out.insert(below(rng, out.size()), kTokens[below(rng, std::size(kTokens))]);
        }
        break;
    }
  }
  return out;
}

TEST(FuzzMutator, CollectNeverThrowsAndNeverHandsBackABrokenModel) {
  const std::string seed_text = kSeedModel;
  for (std::uint64_t rep = 0; rep < 400; ++rep) {
    CounterStream rng(20260807, rep);
    const std::string mutated = mutate(seed_text, rng);
    SCOPED_TRACE("rep " + std::to_string(rep));
    fmt::FmtParseResult r;
    ASSERT_NO_THROW(r = fmt::parse_fmt_collect(mutated));
    EXPECT_EQ(r.model.has_value(), !r.diagnostics.has_errors());
    expect_well_formed(r.diagnostics, mutated);
    if (r.model.has_value()) {
      // Survivors must be fully valid models, not half-built ones.
      ASSERT_NO_THROW(r.model->validate());
    }
  }
}

TEST(FuzzMutator, ThrowingParserAgreesWithCollector) {
  // parse_fmt is collect + throw: it must throw exactly when the collector
  // records errors, and the exception carries the same diagnostics.
  for (std::uint64_t rep = 0; rep < 100; ++rep) {
    CounterStream rng(77, rep);
    const std::string mutated = mutate(kSeedModel, rng);
    const fmt::FmtParseResult collected = fmt::parse_fmt_collect(mutated);
    if (!collected.diagnostics.has_errors()) {
      EXPECT_NO_THROW((void)fmt::parse_fmt(mutated));
      continue;
    }
    try {
      (void)fmt::parse_fmt(mutated);
      FAIL() << "collector saw errors but parse_fmt did not throw (rep " << rep << ")";
    } catch (const ParseErrors& e) {
      EXPECT_EQ(e.diagnostics().size(), collected.diagnostics.error_count());
    } catch (const ModelErrors& e) {
      EXPECT_EQ(e.diagnostics().size(), collected.diagnostics.error_count());
    }
  }
}

}  // namespace
}  // namespace fmtree
