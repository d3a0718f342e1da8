#include "ft/lexer.hpp"

#include <gtest/gtest.h>

#include "util/diagnostics.hpp"

namespace fmtree::ft {
namespace {

TEST(Lexer, TokenizesPunctuationAndNumbers) {
  Diagnostics diags;
  const auto tokens = tokenize("a(1.5e-2,b)=;", diags, kModelText);
  EXPECT_TRUE(diags.empty());
  ASSERT_EQ(tokens.size(), 9u);  // a ( num , b ) = ; End
  EXPECT_EQ(tokens[0].type, TokenType::Identifier);
  EXPECT_EQ(tokens[2].type, TokenType::Number);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.015);
  EXPECT_EQ(tokens[6].type, TokenType::Equals);
  EXPECT_EQ(tokens[8].type, TokenType::End);
}

TEST(Lexer, RejectsGarbage) {
  Diagnostics diags;
  tokenize("valid @ invalid", diags, kModelText);
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.all()[0].code, "L101");
  EXPECT_EQ(diags.all()[0].loc.line, 1u);
  EXPECT_EQ(diags.all()[0].loc.column, 7u);

  Diagnostics unterminated;
  tokenize("x\n  \"unterminated", unterminated, kModelText);
  ASSERT_EQ(unterminated.error_count(), 1u);
  EXPECT_EQ(unterminated.all()[0].code, "L102");
  EXPECT_EQ(unterminated.all()[0].loc.line, 2u);
  EXPECT_EQ(unterminated.all()[0].loc.column, 3u);
}

}  // namespace
}  // namespace fmtree::ft
