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

std::vector<Token> tokenize(const std::string& input, Diagnostics& diags) {
  std::vector<Token> out;
  std::size_t line = 1;
  std::size_t i = 0;
  std::size_t line_start = 0;  // index of the first character of `line`
  const std::size_t n = input.size();
  const auto column = [&](std::size_t at) { return at - line_start + 1; };
  const auto fail = [&](std::size_t at_line, std::size_t at_column, std::string code,
                        const std::string& msg, const std::string& token,
                        const std::string& hint) {
    diags.error(std::move(code), {at_line, at_column}, msg, hint, token);
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
      // A string may span lines; it is located where its opening quote is.
      const std::size_t open_line = line;
      const std::size_t open_column = column(i);
      std::string text;
      ++i;
      while (i < n && input[i] != '"') {
        if (input[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
        text += input[i++];
      }
      if (i >= n) {
        fail(open_line, open_column, "L102", "unterminated string literal", {},
             "close the string with '\"'");
        // Recovery: treat the rest of the input as the string's contents.
        out.push_back(Token{TokenType::Identifier, std::move(text), 0.0, open_line,
                            open_column});
        break;
      }
      ++i;  // closing quote
      out.push_back(
          Token{TokenType::Identifier, std::move(text), 0.0, open_line, open_column});
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < n && is_ident_char(input[i])) ++i;
      out.push_back(Token{TokenType::Identifier, input.substr(start, i - start), 0.0,
                          line, column(start)});
      continue;
    }
    const char next = i + 1 < n ? input[i + 1] : '\0';
    if (is_number_start(c, next)) {
      char* end = nullptr;
      const double value = std::strtod(input.c_str() + i, &end);
      if (end == input.c_str() + i) {
        fail(line, column(i), "L103", "malformed number", std::string(1, c), {});
        ++i;  // recovery: skip the character
        continue;
      }
      const std::size_t start = i;
      i = static_cast<std::size_t>(end - input.c_str());
      out.push_back(Token{TokenType::Number, {}, value, line, column(start)});
      continue;
    }
    switch (c) {
      case '(':
        out.push_back(Token{TokenType::LParen, "(", 0.0, line, column(i)});
        break;
      case ')':
        out.push_back(Token{TokenType::RParen, ")", 0.0, line, column(i)});
        break;
      case ',':
        out.push_back(Token{TokenType::Comma, ",", 0.0, line, column(i)});
        break;
      case ';':
        out.push_back(Token{TokenType::Semicolon, ";", 0.0, line, column(i)});
        break;
      case '=':
        out.push_back(Token{TokenType::Equals, "=", 0.0, line, column(i)});
        break;
      default:
        fail(line, column(i), "L101", std::string("unexpected character '") + c + "'",
             std::string(1, c),
             "identifiers use letters, digits, '_', '.', '-'; strings use double "
             "quotes");
        // Recovery: drop the character and continue scanning.
        break;
    }
    ++i;
  }
  out.push_back(Token{TokenType::End, {}, 0.0, line,
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
                     "expected " + what + ", found '" + token_text(t) + "'", "P101");
  return next();
}

bool TokenCursor::accept(TokenType type) {
  if (peek().type != type) return false;
  next();
  return true;
}

bool TokenCursor::accept_word(const std::string& word) {
  if (peek().type != TokenType::Identifier || peek().text != word) return false;
  next();
  return true;
}

std::string TokenCursor::expect_identifier(const std::string& what) {
  return expect(TokenType::Identifier, what).text;
}

double TokenCursor::expect_number(const std::string& what) {
  return expect(TokenType::Number, what).number;
}

void TokenCursor::synchronize() {
  while (!at_end()) {
    if (next().type == TokenType::Semicolon) return;
  }
}

const char* token_type_name(TokenType t) {
  switch (t) {
    case TokenType::Identifier: return "identifier";
    case TokenType::Number: return "number";
    case TokenType::LParen: return "'('";
    case TokenType::RParen: return "')'";
    case TokenType::Comma: return "','";
    case TokenType::Semicolon: return "';'";
    case TokenType::Equals: return "'='";
    case TokenType::End: return "end of input";
  }
  return "?";
}

}  // namespace fmtree::ft
