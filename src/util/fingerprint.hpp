// Stable 128-bit content fingerprints — the identity primitive of the
// content-addressed result cache (src/batch).
//
// Two hashing front-ends over the same mixing core:
//
//  * StreamHasher — order-sensitive: feed typed values in a fixed canonical
//    order (used for model structure, where order is semantically visible);
//  * KeyedHasher — order-insensitive: feed named fields in any order; the
//    digest sorts by key first, so two call sites that enumerate the same
//    settings fields in different orders produce the same fingerprint.
//
// Every value is fed with a type tag, so e.g. u64(1) and f64(1.0) cannot
// collide by sharing a byte pattern. Doubles are hashed by IEEE-754 bit
// pattern with -0.0 canonicalized to +0.0. The hash is deterministic across
// processes, platforms and library versions for the same inputs — it is a
// persistence format (disk cache keys), not a hash-table hash — so the
// mixing constants below must never change without bumping every schema tag
// fed into them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fmtree {

/// A 128-bit content fingerprint. Value type; compares bitwise.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lowercase hex characters (hi then lo), e.g. for cache file names.
  std::string hex() const;

  /// Inverse of hex(): parses exactly 32 lowercase hex characters. Throws
  /// DomainError on any other input (wire decoders use this to reject
  /// malformed keys early).
  static Fingerprint from_hex(std::string_view text);

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Order-sensitive streaming hasher: two independent FNV-1a lanes with
/// distinct primes, post-mixed on digest(). Feed order defines the hash.
class StreamHasher {
public:
  StreamHasher& bytes(const void* data, std::size_t size) noexcept;

  StreamHasher& u64(std::uint64_t v);
  StreamHasher& i64(std::int64_t v);
  StreamHasher& u32(std::uint32_t v);
  /// Bit-pattern hash; -0.0 is canonicalized to +0.0.
  StreamHasher& f64(double v);
  StreamHasher& boolean(bool v);
  /// Length-prefixed, so str("ab") + str("c") != str("a") + str("bc").
  StreamHasher& str(std::string_view s);
  /// A structural marker (schema tag, section name). Same wire form as
  /// str(), distinct type tag.
  StreamHasher& tag(std::string_view s);
  /// Folds a sub-fingerprint in (e.g. a per-field digest).
  StreamHasher& fingerprint(const Fingerprint& f);

  Fingerprint digest() const noexcept;

private:
  std::uint64_t h1_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t h2_ = 0x9e3779b97f4a7c15ull;  // golden-ratio offset
};

/// Order-insensitive named-field hasher. Each field becomes a (key, value
/// fingerprint) pair; digest() sorts the pairs by key and stream-hashes
/// them, so insertion order cannot leak into the result. Duplicate keys are
/// a caller bug and throw DomainError at digest() time.
class KeyedHasher {
public:
  /// `schema` namespaces the digest (e.g. "fmtree.settings/v1").
  explicit KeyedHasher(std::string_view schema);

  KeyedHasher& u64(std::string_view key, std::uint64_t v);
  KeyedHasher& f64(std::string_view key, double v);
  KeyedHasher& str(std::string_view key, std::string_view v);
  KeyedHasher& fingerprint(std::string_view key, const Fingerprint& f);

  Fingerprint digest() const;

private:
  KeyedHasher& field(std::string_view key, const Fingerprint& value);

  std::string schema_;
  std::vector<std::pair<std::string, Fingerprint>> fields_;
};

}  // namespace fmtree
