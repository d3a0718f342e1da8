#include "util/json.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace fmtree::json {

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw IoError("json: " + what + " at byte " + std::to_string(pos_));
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string_value();
      case 't':
      case 'f': {
        Value v;
        v.kind = Kind::Bool;
        v.boolean = consume_literal("true");
        if (!v.boolean && !consume_literal("false")) fail("bad literal");
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Value parse_string_value() {
    Value v;
    v.kind = Kind::String;
    v.text = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("bad \\u escape");
    }
    return value;
  }

  static void append_codepoint(std::string& out, unsigned cp) {
    // BMP-only UTF-8 encoding; surrogate pairs are passed through as two
    // 3-byte sequences, which is lossy but irrelevant for cache files.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                               c == 'E' || c == '+' || c == '-';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Kind::Number;
    v.text.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw IoError("json: missing member '" + std::string(key) + "'");
}

const std::string& Value::as_string() const {
  if (kind != Kind::String) throw IoError("json: expected a string");
  return text;
}

std::uint64_t Value::as_u64() const {
  if (kind != Kind::Number) throw IoError("json: expected a number");
  errno = 0;
  char* end = nullptr;
  // strtoull would wrap a negative value around to a huge positive one.
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.starts_with('-') || errno != 0 || end == text.c_str() || *end != '\0')
    throw IoError("json: bad unsigned integer '" + text + "'");
  return v;
}

double Value::as_double() const {
  if (kind != Kind::Number && kind != Kind::String)
    throw IoError("json: expected a number");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    throw IoError("json: bad number '" + text + "'");
  return v;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

}  // namespace fmtree::json
