// Tokenizer of the maintenance-policy language (.mpl scripts).
//
// The policy DSL needs a richer token set than the .ft/.fmt model formats
// (comparison operators, braces, arithmetic, the '..' window range), so it
// carries its own lexer, built on the same conventions as ft::tokenize:
// '#' comments to end of line, quoted strings become identifiers (with the
// `quoted` flag set so keywords never match them), and a recovering
// scanner — lexical problems are recorded (codes L110-L112) and skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/diagnostics.hpp"

namespace fmtree::lang {

enum class TokenType {
  Identifier,  // bare word or quoted string (quotes stripped, `quoted` set)
  Number,      // double literal
  LParen,
  RParen,
  LBrace,
  RBrace,
  Comma,
  Semicolon,
  Equals,
  Plus,
  Minus,
  Star,
  Slash,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  EqualsEquals,
  NotEquals,
  DotDot,  // window range: 0.25..0.75
  End,
};

struct Token {
  TokenType type = TokenType::End;
  std::string text;     // identifier text
  double number = 0.0;  // numeric value for Number
  bool quoted = false;  // identifier came from a quoted string
  std::size_t line = 1;
  std::size_t column = 1;  // 1-based column of the token's first character
};

/// Tokenizes the whole input. Bad characters, unterminated strings and
/// malformed numbers are recorded in `diags` (codes L110-L112) and skipped,
/// so one pass surfaces every bad character; it never throws on malformed
/// input. The final token is always TokenType::End.
std::vector<Token> tokenize(const std::string& input, Diagnostics& diags);

/// Cursor over a token stream with convenience expectations (throwing
/// ParseError with the L120 syntax code on mismatch).
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
  /// True iff the next token is the bare (unquoted) keyword `word`.
  bool peek_word(const std::string& word) const;
  /// Consumes a bare (unquoted) identifier equal to `word` if present.
  bool accept_word(const std::string& word);
  /// Consumes and returns an identifier (bare or quoted), or throws.
  Token expect_identifier(const std::string& what);
  /// Consumes and returns a number, or throws.
  double expect_number(const std::string& what);

  /// Panic-mode recovery: skips past the next ';' (or stops before a '}',
  /// which closes the enclosing rule block, or at end of input) so parsing
  /// can resume at the following statement.
  void synchronize();

private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

const char* token_type_name(TokenType t);

/// Display text of a token, for diagnostics.
std::string token_text(const Token& t);

}  // namespace fmtree::lang
