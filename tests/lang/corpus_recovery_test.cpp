// The committed script corpus plus randomized robustness in the style of
// the ft/fmt parser-recovery suites: every valid corpus script compiles
// clean, every malformed one yields located L1xx errors, and thousands of
// random mutations of the corpus never crash the compiler, never cascade
// unboundedly, and always carry stable L1xx codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "lang/policy.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::lang {
namespace {

namespace fs = std::filesystem;

const fs::path kCorpus = fs::path(FMTREE_SOURCE_DIR) / "tests" / "lang" / "corpus";

std::string slurp(const fs::path& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::vector<fs::path> scripts_in(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".mpl") out.push_back(entry.path());
  std::sort(out.begin(), out.end());
  EXPECT_FALSE(out.empty()) << dir;
  return out;
}

bool is_l1xx(const std::string& code) {
  return code.size() == 4 && code[0] == 'L' && code[1] == '1' &&
         std::isdigit(static_cast<unsigned char>(code[2])) != 0 &&
         std::isdigit(static_cast<unsigned char>(code[3])) != 0;
}

TEST(LangCorpus, ValidScriptsCompileWithoutErrors) {
  for (const fs::path& path : scripts_in(kCorpus / "valid")) {
    Diagnostics diags;
    const auto policy = compile_policy(slurp(path), diags);
    EXPECT_TRUE(policy.has_value()) << path << "\n" << diags.to_json();
    EXPECT_FALSE(diags.has_errors()) << path << "\n" << diags.to_json();
    for (const Diagnostic& d : diags.all())
      EXPECT_TRUE(is_l1xx(d.code)) << path << ": " << d.code;
  }
}

TEST(LangCorpus, MalformedScriptsFailWithLocatedL1xxErrors) {
  for (const fs::path& path : scripts_in(kCorpus / "malformed")) {
    Diagnostics diags;
    const auto policy = compile_policy(slurp(path), diags);
    EXPECT_FALSE(policy.has_value()) << path;
    EXPECT_TRUE(diags.has_errors()) << path;
    for (const Diagnostic& d : diags.all()) {
      EXPECT_TRUE(is_l1xx(d.code)) << path << ": " << d.code;
      EXPECT_GT(d.loc.line, 0u) << path << ": " << d.message;
      EXPECT_GT(d.loc.column, 0u) << path << ": " << d.message;
    }
  }
}

/// One deterministic random edit of `text`.
std::string mutate(const std::string& text, std::mt19937& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const auto pos = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  switch (rng() % 5) {
    case 0:  // delete a character
      out.erase(pos(out.size() - 1), 1);
      break;
    case 1: {  // insert a hostile character
      static const char kChars[] = ";{}()\",.@$<>=!#0123456789abc \n";
      out.insert(pos(out.size()), 1, kChars[rng() % (sizeof(kChars) - 1)]);
      break;
    }
    case 2: {  // duplicate a chunk
      const std::size_t at = pos(out.size() - 1);
      const std::size_t len = std::min<std::size_t>(1 + rng() % 16, out.size() - at);
      out.insert(at, out.substr(at, len));
      break;
    }
    case 3:  // truncate
      out.resize(pos(out.size()));
      break;
    default: {  // swap two characters
      const std::size_t a = pos(out.size() - 1), b = pos(out.size() - 1);
      std::swap(out[a], out[b]);
      break;
    }
  }
  return out;
}

TEST(LangCorpus, RandomMutationsNeverCrashAndNeverCascade) {
  std::vector<std::string> sources;
  for (const fs::path& path : scripts_in(kCorpus / "valid"))
    sources.push_back(slurp(path));

  std::mt19937 rng(20260809u);
  for (int round = 0; round < 400; ++round) {
    std::string text = sources[round % sources.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) text = mutate(text, rng);

    Diagnostics diags;
    const auto policy = compile_policy(text, diags);  // must not throw/crash
    if (!policy.has_value()) {
      EXPECT_TRUE(diags.has_errors());
    }
    for (const Diagnostic& d : diags.all()) {
      EXPECT_TRUE(is_l1xx(d.code)) << d.code << " on:\n" << text;
      if (d.severity == Severity::Error && d.code != "L136") {
        EXPECT_GT(d.loc.line, 0u) << d.message << " on:\n" << text;
      }
    }
    // Statement-level re-synchronization bounds the damage: a few edits can
    // not produce an avalanche of follow-up errors.
    EXPECT_LE(diags.all().size(), 40u) << "cascade on:\n" << text;
  }
}

}  // namespace
}  // namespace fmtree::lang
