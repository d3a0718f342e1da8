#include "util/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace fmtree {

namespace {

// Wire-format type tags; part of the persistent hash format, never renumber.
enum : unsigned char {
  kTagU64 = 1,
  kTagI64 = 2,
  kTagU32 = 3,
  kTagF64 = 4,
  kTagBool = 5,
  kTagStr = 6,
  kTagTag = 7,
  kTagFingerprint = 8,
};

constexpr std::uint64_t kPrime1 = 0x00000100000001b3ull;  // FNV-1a prime
constexpr std::uint64_t kPrime2 = 0x9ddfea08eb382d69ull;  // Murmur-style prime

std::uint64_t final_mix(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::string Fingerprint::hex() const {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
  for (int i = 0; i < 16; ++i) out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  return out;
}

Fingerprint Fingerprint::from_hex(std::string_view text) {
  if (text.size() != 32)
    throw DomainError("fingerprint hex must be 32 characters, got " +
                      std::to_string(text.size()));
  const auto nibble = [&](char c) -> std::uint64_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint64_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint64_t>(c - 'a' + 10);
    throw DomainError(std::string("invalid fingerprint hex character '") + c + "'");
  };
  Fingerprint f;
  for (int i = 0; i < 16; ++i) f.hi = f.hi << 4 | nibble(text[i]);
  for (int i = 16; i < 32; ++i) f.lo = f.lo << 4 | nibble(text[i]);
  return f;
}

StreamHasher& StreamHasher::bytes(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h1_ = (h1_ ^ p[i]) * kPrime1;
    h2_ = (h2_ ^ p[i]) * kPrime2;
  }
  return *this;
}

StreamHasher& StreamHasher::u64(std::uint64_t v) {
  const unsigned char tag = kTagU64;
  bytes(&tag, 1);
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

StreamHasher& StreamHasher::i64(std::int64_t v) {
  const unsigned char tag = kTagI64;
  bytes(&tag, 1);
  const auto u = static_cast<std::uint64_t>(v);
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(u >> (8 * i));
  return bytes(buf, sizeof buf);
}

StreamHasher& StreamHasher::u32(std::uint32_t v) {
  const unsigned char tag = kTagU32;
  bytes(&tag, 1);
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

StreamHasher& StreamHasher::f64(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0 to one bit pattern
  const unsigned char tag = kTagF64;
  bytes(&tag, 1);
  const auto u = std::bit_cast<std::uint64_t>(v);
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(u >> (8 * i));
  return bytes(buf, sizeof buf);
}

StreamHasher& StreamHasher::boolean(bool v) {
  const unsigned char buf[2] = {kTagBool, static_cast<unsigned char>(v ? 1 : 0)};
  return bytes(buf, sizeof buf);
}

StreamHasher& StreamHasher::str(std::string_view s) {
  const unsigned char tag = kTagStr;
  bytes(&tag, 1);
  u64(s.size());
  return bytes(s.data(), s.size());
}

StreamHasher& StreamHasher::tag(std::string_view s) {
  const unsigned char t = kTagTag;
  bytes(&t, 1);
  u64(s.size());
  return bytes(s.data(), s.size());
}

StreamHasher& StreamHasher::fingerprint(const Fingerprint& f) {
  const unsigned char tag = kTagFingerprint;
  bytes(&tag, 1);
  u64(f.hi);
  return u64(f.lo);
}

Fingerprint StreamHasher::digest() const noexcept {
  // Cross-mix the lanes so each output word depends on both accumulators.
  return {final_mix(h1_ + 0x2545f4914f6cdd1dull * h2_),
          final_mix(h2_ + 0x27d4eb2f165667c5ull * h1_)};
}

KeyedHasher::KeyedHasher(std::string_view schema) : schema_(schema) {}

KeyedHasher& KeyedHasher::field(std::string_view key, const Fingerprint& value) {
  fields_.emplace_back(std::string(key), value);
  return *this;
}

KeyedHasher& KeyedHasher::u64(std::string_view key, std::uint64_t v) {
  return field(key, StreamHasher().u64(v).digest());
}

KeyedHasher& KeyedHasher::f64(std::string_view key, double v) {
  return field(key, StreamHasher().f64(v).digest());
}

KeyedHasher& KeyedHasher::str(std::string_view key, std::string_view v) {
  return field(key, StreamHasher().str(v).digest());
}

KeyedHasher& KeyedHasher::fingerprint(std::string_view key, const Fingerprint& f) {
  return field(key, StreamHasher().fingerprint(f).digest());
}

Fingerprint KeyedHasher::digest() const {
  std::vector<std::pair<std::string, Fingerprint>> sorted = fields_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].first == sorted[i - 1].first)
      throw DomainError("duplicate fingerprint field '" + sorted[i].first + "'");
  }
  StreamHasher h;
  h.tag(schema_);
  h.u64(sorted.size());
  for (const auto& [key, value] : sorted) {
    h.str(key);
    h.fingerprint(value);
  }
  return h.digest();
}

}  // namespace fmtree
