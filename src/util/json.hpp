// A minimal JSON reader for fmtree's own on-disk artifacts (result-cache
// entries). Full JSON grammar on input; numbers are kept as their raw
// source tokens so callers can decode them losslessly (the cache stores
// doubles as C99 hexfloat *strings*, not JSON numbers, precisely to avoid
// decimal round-trip error — see batch/result_cache.cpp).
//
// This is deliberately not a general-purpose JSON library: no DOM mutation,
// no serializer (writers hand-format their output), no streaming. Errors
// throw IoError with a byte offset.
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

  bool is(Kind k) const noexcept { return kind == k; }

  /// Decodes a Number token as u64 / double; throws IoError on any other
  /// kind or on trailing garbage in the token. as_u64 accepts only a plain
  /// nonnegative integer below 2^64 (no sign, fraction or exponent).
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
