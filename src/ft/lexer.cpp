#include "ft/lexer.hpp"

#include <cctype>
#include <cstdlib>

#include "util/error.hpp"

namespace fmtree::ft {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' ||
         c == '-';
}

bool is_number_start(char c, char next) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0 ||
         (c == '.' && std::isdigit(static_cast<unsigned char>(next)) != 0);
}

}  // namespace

std::vector<Token> tokenize(const std::string& input, Diagnostics& diags,
                            const Dialect& dialect) {
  std::vector<Token> out;
  std::size_t line = 1;
  std::size_t i = 0;
  std::size_t line_start = 0;  // index of the first character of `line`
  const std::size_t n = input.size();
  const auto column = [&](std::size_t at) { return at - line_start + 1; };
  const auto fail = [&](std::size_t at, const std::string& msg, const std::string& token,
                        const std::string& hint) {
    diags.error(dialect.bad_character, {line, column(at)}, msg, hint, token);
  };
  const auto push = [&](TokenType type, std::string text, std::size_t at) {
    out.push_back(Token{type, std::move(text), 0.0, false, line, column(at)});
  };
  while (i < n) {
    const char c = input[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '#') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    if (c == '"') {
      std::string text;
      const std::size_t start = i;
      // A string may span lines; report it at its opening quote (scanning
      // past a '\n' moves line_start beyond `start`, so column(start) would
      // underflow afterwards).
      const std::size_t start_line = line;
      const std::size_t start_column = column(start);
      ++i;
      while (i < n && input[i] != '"') {
        if (input[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        text += input[i++];
      }
      if (i >= n) {
        diags.error(dialect.unterminated_string, {start_line, start_column},
                    "unterminated string literal", "close the string with '\"'");
        // Recovery: treat the rest of the input as the string's contents.
        out.push_back(Token{TokenType::Identifier, std::move(text), 0.0, true,
                            start_line, start_column});
        break;
      }
      ++i;  // closing quote
      out.push_back(Token{TokenType::Identifier, std::move(text), 0.0, true,
                          start_line, start_column});
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < n && is_ident_char(input[i])) ++i;
      push(TokenType::Identifier, input.substr(start, i - start), start);
      continue;
    }
    const char next = i + 1 < n ? input[i + 1] : '\0';
    // '..' before number scanning, so "window 0..1" lexes the range operator
    // instead of a malformed ".." number.
    if (c == '.' && next == '.') {
      push(TokenType::DotDot, "..", i);
      i += 2;
      continue;
    }
    if (is_number_start(c, next)) {
      char* end = nullptr;
      const double value = std::strtod(input.c_str() + i, &end);
      if (end == input.c_str() + i) {
        diags.error(dialect.malformed_number, {line, column(i)}, "malformed number", {},
                    std::string(1, c));
        ++i;  // recovery: skip the character
        continue;
      }
      const std::size_t start = i;
      std::size_t stop = static_cast<std::size_t>(end - input.c_str());
      // "1..5" parses as "1." then ".5" under strtod; give the trailing dot
      // back so the range operator survives ("1" DotDot "5").
      if (stop > start && input[stop - 1] == '.' && stop < n && input[stop] == '.')
        --stop;
      i = stop;
      out.push_back(
          Token{TokenType::Number, {}, value, false, line, column(start)});
      continue;
    }
    switch (c) {
      case '(': push(TokenType::LParen, "(", i); break;
      case ')': push(TokenType::RParen, ")", i); break;
      case '{': push(TokenType::LBrace, "{", i); break;
      case '}': push(TokenType::RBrace, "}", i); break;
      case ',': push(TokenType::Comma, ",", i); break;
      case ';': push(TokenType::Semicolon, ";", i); break;
      case '+': push(TokenType::Plus, "+", i); break;
      case '*': push(TokenType::Star, "*", i); break;
      case '/': push(TokenType::Slash, "/", i); break;
      case '-':
        // '-' cannot start an identifier, so it is always the operator here
        // (is_ident_char admits it only inside a word).
        push(TokenType::Minus, "-", i);
        break;
      case '<':
        if (next == '=') {
          push(TokenType::LessEq, "<=", i);
          ++i;
        } else {
          push(TokenType::Less, "<", i);
        }
        break;
      case '>':
        if (next == '=') {
          push(TokenType::GreaterEq, ">=", i);
          ++i;
        } else {
          push(TokenType::Greater, ">", i);
        }
        break;
      case '=':
        if (next == '=') {
          push(TokenType::EqualsEquals, "==", i);
          ++i;
        } else {
          push(TokenType::Equals, "=", i);
        }
        break;
      case '!':
        if (next == '=') {
          push(TokenType::NotEquals, "!=", i);
          ++i;
        } else {
          fail(i, "unexpected character '!'", "!",
               "negation is spelled 'not'; inequality is '!='");
        }
        break;
      default:
        fail(i, std::string("unexpected character '") + c + "'",
             std::string(1, c),
             "identifiers use letters, digits, '_', '.', '-'; strings use double "
             "quotes");
        // Recovery: drop the character and continue scanning.
        break;
    }
    ++i;
  }
  out.push_back(Token{TokenType::End, {}, 0.0, false, line,
                      i >= line_start ? i - line_start + 1 : 1});
  return out;
}

const Token& TokenCursor::next() {
  const Token& t = tokens_[pos_];
  if (t.type != TokenType::End) ++pos_;
  return t;
}

std::string token_text(const Token& t) {
  if (t.type == TokenType::Number) return std::to_string(t.number);
  return t.text.empty() ? token_type_name(t.type) : t.text;
}

Token TokenCursor::expect(TokenType type, const std::string& what) {
  const Token& t = peek();
  if (t.type != type)
    throw ParseError(t.line, t.column, token_text(t),
                     "expected " + what + ", found '" + token_text(t) + "'",
                     syntax_code_);
  return next();
}

bool TokenCursor::accept(TokenType type) {
  if (peek().type != type) return false;
  next();
  return true;
}

bool TokenCursor::peek_word(const std::string& word) const {
  return peek().type == TokenType::Identifier && !peek().quoted &&
         peek().text == word;
}

bool TokenCursor::accept_word(const std::string& word) {
  if (!peek_word(word)) return false;
  next();
  return true;
}

Token TokenCursor::expect_identifier(const std::string& what) {
  return expect(TokenType::Identifier, what);
}

double TokenCursor::expect_number(const std::string& what) {
  return expect(TokenType::Number, what).number;
}

void TokenCursor::synchronize() {
  while (!at_end()) {
    if (peek().type == TokenType::RBrace) return;  // let the block parser close it
    if (next().type == TokenType::Semicolon) return;
  }
}

const char* token_type_name(TokenType t) {
  switch (t) {
    case TokenType::Identifier: return "identifier";
    case TokenType::Number: return "number";
    case TokenType::LParen: return "'('";
    case TokenType::RParen: return "')'";
    case TokenType::LBrace: return "'{'";
    case TokenType::RBrace: return "'}'";
    case TokenType::Comma: return "','";
    case TokenType::Semicolon: return "';'";
    case TokenType::Equals: return "'='";
    case TokenType::Plus: return "'+'";
    case TokenType::Minus: return "'-'";
    case TokenType::Star: return "'*'";
    case TokenType::Slash: return "'/'";
    case TokenType::Less: return "'<'";
    case TokenType::LessEq: return "'<='";
    case TokenType::Greater: return "'>'";
    case TokenType::GreaterEq: return "'>='";
    case TokenType::EqualsEquals: return "'=='";
    case TokenType::NotEquals: return "'!='";
    case TokenType::DotDot: return "'..'";
    case TokenType::End: return "end of input";
  }
  return "?";
}

}  // namespace fmtree::ft
