// The shared tokenizer on policy scripts (ft::kPolicyText): token coverage,
// the '..' range operator against greedy number scanning, quoted
// identifiers, and the L110-L112 lexical diagnostics, recorded with their
// locations.
#include "ft/lexer.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace fmtree::ft {
namespace {

/// Tokenizes input that must lex without a diagnostic.
std::vector<Token> lex(const std::string& input) {
  Diagnostics diags;
  std::vector<Token> tokens = tokenize(input, diags, kPolicyText);
  EXPECT_TRUE(diags.empty()) << input;
  return tokens;
}

std::vector<TokenType> types_of(const std::vector<Token>& tokens) {
  std::vector<TokenType> out;
  for (const Token& t : tokens) out.push_back(t.type);
  return out;
}

TEST(LangLexer, TokenizesAStatement) {
  const auto tokens = lex("calendar c every 0.25 cost 35;");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].type, TokenType::Identifier);
  EXPECT_EQ(tokens[0].text, "calendar");
  EXPECT_EQ(tokens[3].type, TokenType::Number);
  EXPECT_DOUBLE_EQ(tokens[3].number, 0.25);
  EXPECT_EQ(tokens[5].number, 35.0);
  EXPECT_EQ(tokens[6].type, TokenType::Semicolon);
  EXPECT_EQ(tokens[7].type, TokenType::End);
}

TEST(LangLexer, OperatorsAndPunctuation) {
  const auto tokens = lex("( ) { } , ; = + - * / < <= > >= == !=");
  const std::vector<TokenType> expect = {
      TokenType::LParen,    TokenType::RParen,  TokenType::LBrace,
      TokenType::RBrace,    TokenType::Comma,   TokenType::Semicolon,
      TokenType::Equals,    TokenType::Plus,    TokenType::Minus,
      TokenType::Star,      TokenType::Slash,   TokenType::Less,
      TokenType::LessEq,    TokenType::Greater, TokenType::GreaterEq,
      TokenType::EqualsEquals, TokenType::NotEquals, TokenType::End};
  EXPECT_EQ(types_of(tokens), expect);
}

TEST(LangLexer, RangeOperatorSurvivesGreedyNumbers) {
  // "1..5" must lex as 1, '..', 5 — strtod alone would eat "1." first.
  const auto tokens = lex("window 1..5 of 10");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[1].type, TokenType::Number);
  EXPECT_DOUBLE_EQ(tokens[1].number, 1.0);
  EXPECT_EQ(tokens[2].type, TokenType::DotDot);
  EXPECT_DOUBLE_EQ(tokens[3].number, 5.0);

  const auto frac = lex("0.25..0.75");
  ASSERT_EQ(frac.size(), 4u);
  EXPECT_DOUBLE_EQ(frac[0].number, 0.25);
  EXPECT_EQ(frac[1].type, TokenType::DotDot);
  EXPECT_DOUBLE_EQ(frac[2].number, 0.75);
}

TEST(LangLexer, QuotedStringsAreMarkedIdentifiers) {
  const auto tokens = lex("policy \"end post wear\";");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].type, TokenType::Identifier);
  EXPECT_EQ(tokens[1].text, "end post wear");
  EXPECT_TRUE(tokens[1].quoted);
  EXPECT_FALSE(tokens[0].quoted);
}

TEST(LangLexer, CommentsAndLocations) {
  const auto tokens = lex("# a comment\ncrew 2; # trailing\nrepair");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "crew");
  EXPECT_EQ(tokens[0].line, 2u);
  EXPECT_EQ(tokens[0].column, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 6u);
  EXPECT_EQ(tokens[3].text, "repair");
  EXPECT_EQ(tokens[3].line, 3u);
}

TEST(LangLexer, BadCharacterIsDiagnosedWhereItStands) {
  Diagnostics diags;
  tokenize("calendar c @ every 1;", diags, kPolicyText);
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.all()[0].code, "L110");
  EXPECT_EQ(diags.all()[0].loc.line, 1u);
  EXPECT_EQ(diags.all()[0].loc.column, 12u);
}

TEST(LangLexer, RecoveryModeCollectsAndContinues) {
  Diagnostics diags;
  const auto tokens = tokenize("a @ b $ c", diags, kPolicyText);
  EXPECT_EQ(diags.error_count(), 2u);
  for (const Diagnostic& d : diags.all()) EXPECT_EQ(d.code, "L110");
  // All three identifiers survive around the dropped characters.
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(LangLexer, UnterminatedStringReportsOpeningQuote) {
  Diagnostics diags;
  const auto tokens = tokenize("policy \"abc\ndef", diags, kPolicyText);
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.all()[0].code, "L111");
  EXPECT_EQ(diags.all()[0].loc.line, 1u);
  EXPECT_EQ(diags.all()[0].loc.column, 8u);
  // Recovery: the rest of the input becomes the string's contents.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "abc\ndef");
  EXPECT_TRUE(tokens[1].quoted);
}

TEST(LangLexer, LoneBangIsDiagnosed) {
  Diagnostics diags;
  tokenize("phase ! threshold", diags, kPolicyText);
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.all()[0].code, "L110");
  EXPECT_FALSE(diags.all()[0].hint.empty());
}

}  // namespace
}  // namespace fmtree::ft
