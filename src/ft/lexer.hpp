// Tokenizer of both text formats: fault-maintenance-tree models
// (fmt/parser.hpp) and maintenance-policy scripts (lang/policy.hpp).
//
// '#' comments run to end of line; a quoted string becomes an identifier
// with the `quoted` flag set, so a keyword never matches it; lexical
// problems are recorded and skipped, so one pass surfaces every bad
// character. The token set is the policy language's; the model parser
// rejects the tokens its grammar has no place for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/diagnostics.hpp"

namespace fmtree::ft {

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

/// The diagnostic codes of one text format (DESIGN.md, "Failure
/// semantics"). Each parser passes its own constant below.
struct Dialect {
  const char* bad_character;
  const char* unterminated_string;
  const char* malformed_number;
  const char* syntax;  // a TokenCursor::expect mismatch
};
inline constexpr Dialect kModelText{"L101", "L102", "L103", "P101"};
inline constexpr Dialect kPolicyText{"L110", "L111", "L112", "L120"};

/// Tokenizes the whole input. Bad characters, unterminated strings and
/// malformed numbers are recorded in `diags` under the dialect's codes and
/// skipped; it never throws on malformed input. The final token is always
/// TokenType::End.
std::vector<Token> tokenize(const std::string& input, Diagnostics& diags,
                            const Dialect& dialect);

/// Cursor over a token stream with convenience expectations (throwing
/// ParseError with the dialect's syntax code on mismatch).
class TokenCursor {
public:
  TokenCursor(std::vector<Token> tokens, const Dialect& dialect)
      : tokens_(std::move(tokens)), syntax_code_(dialect.syntax) {}

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
  /// which closes the enclosing policy rule block, or at end of input) so
  /// parsing can resume at the following statement.
  void synchronize();

private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  const char* syntax_code_;
};

const char* token_type_name(TokenType t);

/// Display text of a token, for diagnostics.
std::string token_text(const Token& t);

}  // namespace fmtree::ft
