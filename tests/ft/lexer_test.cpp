#include "ft/lexer.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace fmtree::ft {
namespace {

TEST(Lexer, TokenizesPunctuationAndNumbers) {
  const auto tokens = tokenize("a(1.5e-2,b)=;");
  ASSERT_EQ(tokens.size(), 9u);  // a ( num , b ) = ; End
  EXPECT_EQ(tokens[0].type, TokenType::Identifier);
  EXPECT_EQ(tokens[2].type, TokenType::Number);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.015);
  EXPECT_EQ(tokens[6].type, TokenType::Equals);
  EXPECT_EQ(tokens[8].type, TokenType::End);
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_THROW(tokenize("valid @ invalid"), ParseError);
  EXPECT_THROW(tokenize("\"unterminated"), ParseError);
}

}  // namespace
}  // namespace fmtree::ft
