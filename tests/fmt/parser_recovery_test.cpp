// Error-recovery parsing of the .fmt format: one pass collects every
// diagnostic; semantic checks (references, cycles, usage) report complete
// lists and are suppressed when the statement level already failed.
#include "fmt/parser.hpp"

#include <gtest/gtest.h>

#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace fmtree::fmt {
namespace {

TEST(FmtParserRecovery, CleanInputYieldsModelAndNoDiagnostics) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A B;\n"
      "A ebe phases=3 mean=10 threshold=2;\n"
      "B be exp(0.1);\n"
      "inspection Visual period=0.5 cost=10 targets A;\n");
  ASSERT_TRUE(r.model.has_value());
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.model->num_ebes(), 2u);
}

TEST(FmtParserRecovery, ReportsEveryStatementErrorInOnePass) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A B;\n"
      "A ebe phases=0 mean=5;\n"   // bad attribute value
      "B foo bar;\n"               // unknown statement type
      "T ebe phases=2 mean=5;\n"   // duplicate definition
      "B be exp(1);\n");           // fine — recovery must reach it
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 3u);
  const auto& d = r.diagnostics.all();
  EXPECT_EQ(d[0].loc.line, 3u);
  EXPECT_NE(d[0].message.find("phases"), std::string::npos);
  EXPECT_EQ(d[1].loc.line, 4u);
  EXPECT_EQ(d[1].code, "P104");
  EXPECT_EQ(d[1].token, "foo");
  EXPECT_EQ(d[2].loc.line, 5u);
  EXPECT_NE(d[2].message.find("duplicate"), std::string::npos);
}

TEST(FmtParserRecovery, DependencyAndModuleTargetsValidated) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A B;\n"
      "A ebe phases=2 mean=5 threshold=1;\n"
      "B ebe phases=2 mean=5;\n"
      "rdep R factor=2 trigger=A targets Nope;\n"
      "inspection I period=1 cost=5 targets Ghost;\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 2u);
  for (const Diagnostic& d : r.diagnostics.all()) {
    EXPECT_EQ(d.code, "P301");
    EXPECT_FALSE(d.hint.empty());
  }
}

TEST(FmtParserRecovery, UnusedLeafReported) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A;\n"
      "A ebe phases=2 mean=5;\n"
      "Unused ebe phases=2 mean=5;\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M103");
  EXPECT_EQ(r.diagnostics.all()[0].loc.line, 4u);
}

TEST(FmtParserRecovery, DependencyTriggersCountAsUsage) {
  // C sits outside the tree but accelerates A; triggers are usage roots
  // (mirrors FaultMaintenanceTree::validate), so this is a valid model.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A;\n"
      "A ebe phases=2 mean=5 threshold=1;\n"
      "C ebe phases=2 mean=5;\n"
      "rdep R factor=2 trigger=C targets A;\n");
  EXPECT_TRUE(r.model.has_value()) << format_diagnostic(r.diagnostics.all().front());
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(FmtParserRecovery, DependencyTargetOutsideTreeIsReported) {
  // A target is not a usage root: accelerating a leaf that never feeds the
  // structure function is a modelling error, caught at parse validation
  // (M103) instead of surfacing later as a generic build failure.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A;\n"
      "A ebe phases=2 mean=5 threshold=1;\n"
      "B ebe phases=2 mean=5;\n"
      "rdep R factor=2 trigger=A targets B;\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M103");
  EXPECT_EQ(r.diagnostics.all()[0].token, "B");
}

TEST(FmtParserRecovery, SyntaxErrorsSuppressSemanticCascade) {
  // The broken leaf statement leaves 'A' undeclared; reporting M101/M103 on
  // top of the real error would be noise.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\nT or A;\nA ebe phases=0 mean=5;\n");
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].loc.line, 3u);
}

TEST(FmtParserRecovery, UndefinedReferenceAndMissingToplevel) {
  const FmtParseResult r = parse_fmt_collect(
      "T or A Missing;\nA ebe phases=2 mean=5;\n");
  EXPECT_FALSE(r.model.has_value());
  bool saw_toplevel = false;
  for (const Diagnostic& d : r.diagnostics.all())
    saw_toplevel |= d.code == "P103";
  EXPECT_TRUE(saw_toplevel);
}

TEST(FmtParserRecovery, ThrowingParserRaisesAggregate) {
  const std::string text =
      "toplevel T;\nT or A B;\nA ebe phases=0 mean=5;\nB foo;\n";
  try {
    (void)parse_fmt(text);
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u);
    EXPECT_NE(std::string(e.what()).find("2 parse errors"), std::string::npos);
  }
}

TEST(FmtParserRecovery, NonFiniteAttributeValuesAreTypedErrors) {
  // 1e999 overflows to inf; casting that to int would be UB, so the parser
  // must reject it as a diagnostic.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\nT or A;\nA ebe phases=1e999 mean=5;\n");
  EXPECT_FALSE(r.model.has_value());
  EXPECT_GE(r.diagnostics.error_count(), 1u);
}

TEST(FmtParserRecovery, StaticStatementErrorsAreLocated) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A V W;\n"
      "A be exp(1);\n"
      "  A be exp(2);\n"      // duplicate definition
      "V vot 1.5 A;\n"        // fractional threshold
      "  W vot 1e999 A;\n");  // infinite threshold: never cast to int
  ASSERT_EQ(r.diagnostics.error_count(), 3u);
  const auto& d = r.diagnostics.all();
  EXPECT_EQ(d[0].code, "P102");
  EXPECT_EQ(d[0].loc.line, 4u);
  EXPECT_EQ(d[0].loc.column, 3u);
  EXPECT_EQ(d[0].token, "A");
  EXPECT_EQ(d[0].hint, "every node is declared exactly once");
  EXPECT_EQ(d[1].code, "P201");
  EXPECT_EQ(d[1].loc.line, 5u);
  EXPECT_EQ(d[1].loc.column, 1u);
  EXPECT_EQ(d[1].token, "V");
  EXPECT_EQ(d[2].code, "P201");
  EXPECT_EQ(d[2].loc.line, 6u);
  EXPECT_EQ(d[2].loc.column, 3u);
}

TEST(FmtParserRecovery, UndefinedReferencesAreLocatedAtTheReferringStatement) {
  const FmtParseResult child = parse_fmt_collect(
      "toplevel T;\nT or A G;\nA be exp(1);\n  G and A Missing;\n");
  ASSERT_EQ(child.diagnostics.error_count(), 1u);
  EXPECT_EQ(child.diagnostics.all()[0].code, "M101");
  EXPECT_EQ(child.diagnostics.all()[0].token, "Missing");
  EXPECT_EQ(child.diagnostics.all()[0].loc.line, 4u);
  EXPECT_EQ(child.diagnostics.all()[0].loc.column, 3u);

  const FmtParseResult top =
      parse_fmt_collect("T or A;\nA be exp(1);\n  toplevel Top;\n");
  ASSERT_EQ(top.diagnostics.error_count(), 1u);
  EXPECT_EQ(top.diagnostics.all()[0].code, "M101");
  EXPECT_EQ(top.diagnostics.all()[0].token, "Top");
  EXPECT_EQ(top.diagnostics.all()[0].loc.line, 3u);
  EXPECT_EQ(top.diagnostics.all()[0].loc.column, 3u);
}

TEST(FmtParserRecovery, StringsAreLocatedAtTheirOpeningQuote) {
  // A string that never closes swallows the rest of the input; it is
  // reported where it opens, not past the end of the last line.
  const FmtParseResult open = parse_fmt_collect(
      "toplevel T;\nT or A;\nA be exp(1);\nB or \"open\nstill open;\n");
  ASSERT_GE(open.diagnostics.error_count(), 1u);
  const Diagnostic& l102 = open.diagnostics.all()[0];
  EXPECT_EQ(l102.code, "L102");
  EXPECT_EQ(l102.loc.line, 4u);
  EXPECT_EQ(l102.loc.column, 6u);

  // A closed string may span lines; the name it spells is located at its
  // opening quote too.
  const FmtParseResult spanning = parse_fmt_collect(
      "toplevel T;\nT or \"x\ny\";\n\"x\ny\" be exp(1);\n  \"x\ny\" be exp(2);\n");
  ASSERT_EQ(spanning.diagnostics.error_count(), 1u);
  const Diagnostic& p102 = spanning.diagnostics.all()[0];
  EXPECT_EQ(p102.code, "P102");
  EXPECT_EQ(p102.loc.line, 6u);
  EXPECT_EQ(p102.loc.column, 3u);
}

TEST(FmtParserRecovery, ModelErrorsInAStatementAreLocated) {
  // Infinite lifetimes parse as distributions but the leaf's degradation
  // model rejects them; the diagnostic points at the offending statement.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\nT or A B;\n  A be never;\nB be det(1e999);\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 2u);
  const auto& d = r.diagnostics.all();
  EXPECT_EQ(d[0].code, "P199");
  EXPECT_EQ(d[0].loc.line, 3u);
  EXPECT_EQ(d[0].loc.column, 3u);
  EXPECT_NE(d[0].message.find("never"), std::string::npos);
  EXPECT_EQ(d[1].code, "P199");
  EXPECT_EQ(d[1].loc.line, 4u);
  EXPECT_EQ(d[1].loc.column, 1u);
}

TEST(FmtParserRecovery, PolicyPunctuationIsASyntaxErrorWhereItStands) {
  // Model and policy text share one lexer: '-' is a token, and a model has
  // no place for it, so the number it precedes is a located P101.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\nT or A;\nA ebe phases=2 mean=-5 threshold=9e18;\n");
  ASSERT_EQ(r.diagnostics.all().size(), 1u);
  const Diagnostic& d = r.diagnostics.all()[0];
  EXPECT_EQ(d.code, "P101");
  EXPECT_EQ(d.loc.line, 3u);
  EXPECT_EQ(d.loc.column, 21u);
  EXPECT_EQ(d.token, "-");
}

TEST(FmtParserRecovery, StrayBraceIsSkippedToTheNextSemicolon) {
  // The shared recovery stops before a '}' (it closes a policy rule block);
  // the model parser skips it, so the parse ends after one diagnostic.
  const FmtParseResult r = parse_fmt_collect("toplevel T;\nT or A };\n");
  ASSERT_EQ(r.diagnostics.all().size(), 1u);
  const Diagnostic& d = r.diagnostics.all()[0];
  EXPECT_EQ(d.code, "P101");
  EXPECT_EQ(d.loc.line, 2u);
  EXPECT_EQ(d.loc.column, 8u);
}

// Static fault trees: the toplevel / and / or / vot / be statements alone.

TEST(FtParserRecovery, CleanInputYieldsTreeAndNoDiagnostics) {
  const FmtParseResult r =
      parse_fmt_collect("toplevel T;\nT or A B;\nA be exp(1);\nB be exp(2);\n");
  ASSERT_TRUE(r.model.has_value());
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.model->structure().basic_events().size(), 2u);
}

TEST(FtParserRecovery, ReportsEveryErrorInOnePass) {
  // Three independent problems on three lines; the statement loop must
  // synchronize at each ';' and keep going.
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A B C;\n"
      "A be exp(0);\n"     // bad rate
      "B zz C;\n"          // unknown statement type
      "T be exp(1);\n"     // duplicate definition
      "C be exp(1);\n");   // fine — must still be consumed
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 3u);
  const auto& d = r.diagnostics.all();
  EXPECT_EQ(d[0].loc.line, 3u);
  EXPECT_EQ(d[0].code, "P101");
  EXPECT_EQ(d[1].loc.line, 4u);
  EXPECT_EQ(d[1].code, "P104");
  EXPECT_EQ(d[1].token, "zz");
  EXPECT_GT(d[1].loc.column, 0u);
  EXPECT_EQ(d[2].loc.line, 5u);
  EXPECT_EQ(d[2].code, "P102");
  EXPECT_FALSE(d[2].hint.empty());
}

TEST(FtParserRecovery, LexicalAndSyntaxErrorsCoexist) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or @ A;\n"        // lexer-level bad character
      "A be zeta(1);\n");  // unknown distribution
  EXPECT_FALSE(r.model.has_value());
  ASSERT_GE(r.diagnostics.error_count(), 2u);
  EXPECT_EQ(r.diagnostics.all()[0].code[0], 'L');
  EXPECT_EQ(r.diagnostics.all()[0].loc.line, 2u);
}

TEST(FtParserRecovery, SyntaxErrorsSuppressCascadingReferenceErrors) {
  // 'A be exp(0);' fails, leaving A undeclared — but reporting M101 for A
  // on top of the real error would only confuse; the semantic phase is
  // skipped when syntax errors exist.
  const FmtParseResult r = parse_fmt_collect("toplevel T;\nT or A;\nA be exp(0);\n");
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "P101");
}

TEST(FtParserRecovery, UndefinedReferencesAllReportedAndDeduplicated) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\n"
      "T or A B;\n"
      "A and Miss1 Miss2;\n"
      "B or Miss1;\n"  // Miss1 again: reported once
      );
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 2u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M101");
  EXPECT_EQ(r.diagnostics.all()[1].code, "M101");
}

TEST(FtParserRecovery, CyclesReported) {
  const FmtParseResult r = parse_fmt_collect("toplevel T;\nT or U;\nU or T;\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_GE(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M102");
}

TEST(FtParserRecovery, AllOrphansReported) {
  const FmtParseResult r = parse_fmt_collect(
      "toplevel T;\nT or A;\nA be exp(1);\n"
      "O1 be exp(1);\nO2 or A;\n");
  EXPECT_FALSE(r.model.has_value());
  EXPECT_EQ(r.diagnostics.error_count(), 2u);
  for (const Diagnostic& d : r.diagnostics.all()) EXPECT_EQ(d.code, "M103");
}

TEST(FtParserRecovery, MissingToplevelAlwaysChecked) {
  const FmtParseResult r = parse_fmt_collect("A be exp(1);\n");
  EXPECT_FALSE(r.model.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "P103");
  EXPECT_FALSE(r.diagnostics.all()[0].hint.empty());
}

TEST(FtParserRecovery, ThrowingParserRaisesAggregateWithSameDiagnostics) {
  const std::string text = "toplevel T;\nT or A;\nA be exp(0);\nB zz;\n";
  const FmtParseResult collected = parse_fmt_collect(text);
  ASSERT_EQ(collected.diagnostics.error_count(), 2u);
  try {
    (void)parse_fmt(text);
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    ASSERT_EQ(e.diagnostics().size(), 2u);
    EXPECT_EQ(e.diagnostics()[0].code, collected.diagnostics.all()[0].code);
    EXPECT_EQ(e.diagnostics()[1].loc.line, collected.diagnostics.all()[1].loc.line);
  }
}

TEST(FtParserRecovery, ExpectedTokenErrorsCarryColumnAndToken) {
  try {
    (void)parse_fmt("toplevel T\nT or A;\nA be exp(1);\n");
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    const Diagnostic& d = e.diagnostics().front();
    EXPECT_EQ(d.loc.line, 2u);  // the 'T' opening line 2 is where ';' was expected
    EXPECT_GT(d.loc.column, 0u);
    EXPECT_EQ(d.token, "T");
    EXPECT_EQ(e.line(), 2u);  // the aggregate mirrors the first error's location
  }
}

}  // namespace
}  // namespace fmtree::fmt
