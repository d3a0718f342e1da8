// Tokenizer for the fault-maintenance-tree text format (fmt/parser.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/diagnostics.hpp"

namespace fmtree::ft {

enum class TokenType {
  Identifier,  // bare name or quoted string (quotes stripped)
  Number,      // double literal
  LParen,
  RParen,
  Comma,
  Semicolon,
  Equals,
  End,
};

struct Token {
  TokenType type = TokenType::End;
  std::string text;     // identifier text
  double number = 0.0;  // numeric value for Number
  std::size_t line = 1;
  std::size_t column = 1;  // 1-based column of the token's first character
};

/// Tokenizes the whole input. '#' starts a comment to end of line. Lexical
/// problems are recorded in `diags` (codes L101/L102/L103) and skipped, so
/// one pass surfaces every bad character; it never throws on malformed
/// input. The final token is always TokenType::End.
std::vector<Token> tokenize(const std::string& input, Diagnostics& diags);

/// Cursor over a token stream with convenience expectations.
class TokenCursor {
public:
  explicit TokenCursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& peek() const { return tokens_[pos_]; }
  const Token& next();
  bool at_end() const { return peek().type == TokenType::End; }
  std::size_t line() const { return peek().line; }
  std::size_t column() const { return peek().column; }

  /// Consumes and returns a token of the given type, or throws ParseError.
  Token expect(TokenType type, const std::string& what);
  /// Consumes the next token if it matches; returns whether it did.
  bool accept(TokenType type);
  /// Consumes an identifier equal to `word` if present.
  bool accept_word(const std::string& word);
  /// Consumes and returns an identifier, or throws.
  std::string expect_identifier(const std::string& what);
  /// Consumes and returns a number, or throws.
  double expect_number(const std::string& what);

  /// Panic-mode recovery: skips past the next ';' (or to end of input) so
  /// parsing can resume at the following statement.
  void synchronize();

private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

const char* token_type_name(TokenType t);

/// Display text of a token, for diagnostics.
std::string token_text(const Token& t);

}  // namespace fmtree::ft
