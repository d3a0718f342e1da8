#include "batch/result_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "batch/fingerprint.hpp"
#include "fmt/parser.hpp"
#include "report_bits.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace fmtree::batch {
namespace {

using batch_test::same_bits;

CacheKey test_key(std::uint64_t salt = 0) {
  return CacheKey{Fingerprint{0x1234, salt}, Fingerprint{0x5678, 0x9abc}};
}

/// A report stuffed with doubles a decimal serialization would mangle:
/// non-terminating binaries, subnormals, extremes of the exponent range,
/// and a negative zero.
smc::KpiReport nasty_report() {
  smc::KpiReport r;
  r.horizon = 0.1 + 0.2;  // != 0.3
  r.trajectories = 12345;
  r.reliability = {1.0 / 3.0, std::nextafter(1.0 / 3.0, 0.0), 2.0 / 3.0, 0.95};
  r.expected_failures = {5e-324, 1e308, -0.0, 0.99};  // subnormal, huge, -0.0
  r.failures_per_year = {3.141592653589793, -3.141592653589793, 1e-300, 0.95};
  r.availability = {std::numeric_limits<double>::epsilon(), 0.0, 1.0, 0.95};
  r.total_cost = {1234.5678, 1000.0, 1500.0, 0.95};
  r.cost_per_year = {61.728, 50.0, 75.0, 0.95};
  r.npv_cost = {1111.1, 1000.1, 1222.1, 0.95};
  r.mean_cost = {0.1, 0.2, 0.3, 0.4, 0.7};
  r.mean_inspections = 39.999999999999996;
  r.mean_repairs = 2.0000000000000004;
  r.mean_replacements = 0.0;
  r.failures_per_leaf = {0.1, 1.0 / 7.0, 5e-324};
  r.repairs_per_leaf = {0.0, -0.0, 123.456};
  return r;
}

TEST(ResultCacheCodec, HexfloatRoundTripIsBitwiseExact) {
  const CacheKey key = test_key();
  const smc::KpiReport original = nasty_report();
  const smc::KpiReport decoded = decode_report(key, encode_report(key, original));
  EXPECT_TRUE(same_bits(original, decoded));
}

// nasty_report() under test_key() in the multi-line layout entries had
// before they became one line, pasted from that release's encode_report.
// JSON whitespace is insignificant, so a cache written then still replays
// bit for bit.
constexpr const char* kMultiLineEntry = R"({
  "schema": "fmtree.result/v2",
  "model": "00000000000012340000000000000000",
  "request": "00000000000056780000000000009abc",
  "content_hash": "ce70685fba179356fb6abc3863860585",
  "report": {
    "horizon": "0x1.3333333333334p-2",
    "trajectories": 12345,
    "reliability": ["0x1.5555555555555p-2", "0x1.5555555555554p-2", "0x1.5555555555555p-1", "0x1.e666666666666p-1"],
    "expected_failures": ["0x0.0000000000001p-1022", "0x1.1ccf385ebc8ap+1023", "-0x0p+0", "0x1.fae147ae147aep-1"],
    "failures_per_year": ["0x1.921fb54442d18p+1", "-0x1.921fb54442d18p+1", "0x1.56e1fc2f8f359p-997", "0x1.e666666666666p-1"],
    "availability": ["0x1p-52", "0x0p+0", "0x1p+0", "0x1.e666666666666p-1"],
    "total_cost": ["0x1.34a456d5cfaadp+10", "0x1.f4p+9", "0x1.77p+10", "0x1.e666666666666p-1"],
    "cost_per_year": ["0x1.edd2f1a9fbe77p+5", "0x1.9p+5", "0x1.2cp+6", "0x1.e666666666666p-1"],
    "npv_cost": ["0x1.15c6666666666p+10", "0x1.f40cccccccccdp+9", "0x1.3186666666666p+10", "0x1.e666666666666p-1"],
    "mean_cost": ["0x1.999999999999ap-4", "0x1.999999999999ap-3", "0x1.3333333333333p-2", "0x1.999999999999ap-2", "0x1.6666666666666p-1"],
    "mean_inspections": "0x1.3ffffffffffffp+5",
    "mean_repairs": "0x1.0000000000001p+1",
    "mean_replacements": "0x0p+0",
    "failures_per_leaf": ["0x1.999999999999ap-4", "0x1.2492492492492p-3", "0x0.0000000000001p-1022"],
    "repairs_per_leaf": ["0x0p+0", "-0x0p+0", "0x1.edd2f1a9fbe77p+6"]
  }
}
)";

TEST(ResultCacheCodec, MultiLineEntriesOfEarlierReleasesDecodeBitwise) {
  EXPECT_TRUE(same_bits(decode_report(test_key(), kMultiLineEntry), nasty_report()));
}

TEST(ResultCacheCodec, ValueSpelledAsAJsonNumberDecodesAndTheHashGatesIt) {
  // total_cost's point, 1234.5678, whose shortest decimal reads back to the
  // same bits. The hash is over decoded bits, so either spelling passes and
  // one changed digit does not.
  const CacheKey key = test_key();
  const std::string text = encode_report(key, nasty_report());
  const std::string hexfloat = "\"" + json::hexfloat(1234.5678) + "\"";
  const auto respelled = [&](const std::string& number) {
    std::string out = text;
    out.replace(out.find(hexfloat), hexfloat.size(), number);
    return out;
  };
  EXPECT_TRUE(same_bits(decode_report(key, respelled("1234.5678")), nasty_report()));
  try {
    (void)decode_report(key, respelled("1234.5679"));
    ADD_FAILURE() << "a changed digit decoded";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("content hash mismatch"), std::string::npos)
        << e.what();
  }
}

TEST(ResultCacheCodec, RejectsKeyMismatchAndGarbage) {
  const CacheKey key = test_key();
  const std::string text = encode_report(key, nasty_report());
  EXPECT_THROW(decode_report(test_key(/*salt=*/1), text), IoError);
  EXPECT_THROW(decode_report(key, "not json"), IoError);
  EXPECT_THROW(decode_report(key, "{\"schema\": \"fmtree.result/v99\"}"), IoError);
}

TEST(ResultCache, MemoryTierHitsBitwise) {
  ResultCache cache;
  EXPECT_FALSE(cache.has_disk_tier());
  const CacheKey key = test_key();
  EXPECT_FALSE(cache.get(key).has_value());
  cache.put(key, nasty_report());
  const auto hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bits(*hit, nasty_report()));
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.memory_hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.disk_writes, 0u);
}

TEST(ResultCache, RefusesTruncatedReports) {
  ResultCache cache;
  smc::KpiReport truncated = nasty_report();
  truncated.truncated = true;
  truncated.stop_reason = smc::StopReason::Interrupted;
  cache.put(test_key(), truncated);
  EXPECT_FALSE(cache.get(test_key()).has_value());
}

TEST(ResultCache, DiskTierSurvivesProcessBoundary) {
  const std::string dir = testing::TempDir() + "fmtree_cache_disk_test";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  const CacheKey key = test_key();
  {
    ResultCache writer(dir);
    EXPECT_TRUE(writer.has_disk_tier());
    writer.put(key, nasty_report());
    EXPECT_EQ(writer.stats().disk_writes, 1u);
  }
  // A fresh cache instance (≈ a new process) finds the entry on disk.
  ResultCache reader(dir);
  const auto hit = reader.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bits(*hit, nasty_report()));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // The promoted copy now serves from memory.
  (void)reader.get(key);
  EXPECT_EQ(reader.stats().memory_hits, 1u);
}

TEST(ResultCache, CorruptDiskEntryIsAMissNotAnError) {
  const std::string dir = testing::TempDir() + "fmtree_cache_corrupt_test";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  const CacheKey key = test_key(/*salt=*/7);
  ResultCache cache(dir);
  {
    std::ofstream out(dir + "/" + key.id() + ".json");
    out << "{ \"schema\": \"fmtree.result/v1\", truncated garbage";
  }
  EXPECT_FALSE(cache.get(key).has_value());
  const ResultCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.disk_failures, 1u);
  // And the slot is writable again.
  cache.put(key, nasty_report());
  ResultCache fresh(dir);
  EXPECT_TRUE(fresh.get(key).has_value());
}

TEST(ResultCache, UncreatableDirectoryThrows) {
  EXPECT_THROW(ResultCache(""), IoError);
  EXPECT_THROW(ResultCache("/dev/null/not-a-dir"), IoError);
}

TEST(ResultCacheCodec, ContentHashCatchesSingleBitRot) {
  const CacheKey key = test_key();
  std::string text = encode_report(key, nasty_report());
  EXPECT_NE(text.find("\"content_hash\""), std::string::npos);
  // Flip one bit in the middle of the payload: whatever it lands on — a
  // value digit, a key, structure — decode must reject the entry.
  text[text.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_report(key, text), IoError);
}

TEST(ResultCacheCodec, ContentHashIsAFunctionOfValuesNotText) {
  // Same values, different keys: the hash must agree (it feeds from the
  // decoded values, not from the serialized text or the entry identity).
  const std::string a = encode_report(test_key(), nasty_report());
  const std::string b = encode_report(test_key(/*salt=*/9), nasty_report());
  const std::string needle = "\"content_hash\":\"";
  const auto hash_of = [&](const std::string& text) {
    const std::size_t at = text.find(needle) + needle.size();
    return text.substr(at, 32);
  };
  EXPECT_EQ(hash_of(a), hash_of(b));
  EXPECT_EQ(report_content_hash(nasty_report()).hex(), hash_of(a));
}

TEST(ResultCache, QuarantinesCorruptEntriesWithAWarning) {
  const std::string dir = testing::TempDir() + "fmtree_cache_quarantine_test";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  const CacheKey key = test_key(/*salt=*/3);
  {
    ResultCache writer(dir);
    writer.put(key, nasty_report());
  }
  // Corrupt the published entry on disk the way bit rot would.
  const std::string path = dir + "/" + key.id() + ".json";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.get(c);
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0x01));
  }
  ResultCache reader(dir);
  std::optional<Diagnostic> warning;
  EXPECT_FALSE(reader.get(key, &warning).has_value());
  ASSERT_TRUE(warning.has_value());
  const ResultCache::Stats st = reader.stats();
  EXPECT_EQ(st.corrupt_entries, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));  // moved, not deleted
  // Moved under a name of its own: "<id>.json.<tag>-<n>".
  std::vector<std::string> moved;
  for (const auto& entry :
       std::filesystem::directory_iterator(reader.quarantine_directory()))
    moved.push_back(entry.path().filename().string());
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].rfind(key.id() + ".json.", 0), 0u) << moved[0];
  EXPECT_NE(warning->message.find(moved[0]), std::string::npos) << warning->message;
  // The C101 goes to the caller of the get() that quarantined the entry,
  // not to the cache's shared list.
  EXPECT_EQ(warning->code, "C101");
  EXPECT_EQ(warning->severity, Severity::Warning);
  EXPECT_TRUE(reader.take_warnings().empty());
  // The entry is gone now: a second read is a plain miss with no warning.
  std::optional<Diagnostic> again;
  EXPECT_FALSE(reader.get(key, &again).has_value());
  EXPECT_FALSE(again.has_value());
  EXPECT_EQ(reader.stats().corrupt_entries, 1u);
}

TEST(ResultCache, RecoveryScanRemovesStaleTempFiles) {
  const std::string dir = testing::TempDir() + "fmtree_cache_recovery_test";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  std::filesystem::create_directories(dir);
  {
    std::ofstream dead(dir + "/abc.json.tmp.deadbeef-1");
    dead << "torn write from a crashed process";
  }
  ResultCache cache(dir);
  EXPECT_FALSE(std::filesystem::exists(dir + "/abc.json.tmp.deadbeef-1"));
  EXPECT_EQ(cache.stats().recovered_tmp_files, 1u);
  const std::vector<Diagnostic> warnings = cache.take_warnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].code, "C102");
}

}  // namespace
}  // namespace fmtree::batch
