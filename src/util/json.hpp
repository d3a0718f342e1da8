// A minimal JSON reader for fmtree's own documents: the result-cache entry,
// the request and the response events. Full JSON grammar on input; numbers
// are kept as their raw source tokens. fmtree writes each double as a string
// holding its exact C99 hexfloat (hexfloat() below) and reads every double
// back through Value::as_double, which also takes a plain JSON number.
//
// This is deliberately not a general-purpose JSON library: no DOM mutation,
// no serializer (writers hand-format their output), no streaming. Errors
// throw IoError.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmtree::json {

enum class Kind { Null, Bool, Number, String, Array, Object };

/// A parsed JSON value. Object member order is preserved.
struct Value {
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  ///< String content, or the raw token of a Number.
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
  /// The same for a required member; throws IoError naming `key`.
  const Value& at(std::string_view key) const;

  bool is(Kind k) const noexcept { return kind == k; }

  /// Readers; each throws IoError on another kind or a malformed token.
  /// as_u64 takes a plain integer in [0, 2^64) (no sign, fraction, exponent);
  /// as_double a Number, or a String spelling a double (fmtree's hexfloats).
  const std::string& as_string() const;
  std::uint64_t as_u64() const;
  double as_double() const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws IoError on malformed input.
Value parse(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
std::string escape(std::string_view s);

/// The C99 hexfloat spelling of `v` ("%a"): exact bits, locale-independent,
/// strtod-parseable. fmtree writes doubles as strings of this form.
std::string hexfloat(double v);

}  // namespace fmtree::json
