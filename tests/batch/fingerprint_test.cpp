#include "batch/fingerprint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fmt/canonical.hpp"
#include "fmt/parser.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace fmtree::batch {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=6 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.25 cost=20 targets A;
  corrective cost=5000 delay=0.02;
)";

std::string read_ei_joint() {
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/models/ei_joint.fmt");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// ---- Hash primitives --------------------------------------------------------

TEST(StreamHasher, TypedAndLengthPrefixed) {
  const auto digest = [](auto&& feed) {
    StreamHasher h;
    feed(h);
    return h.digest();
  };
  // u64(1) and f64(1.0) must not collide via their byte patterns.
  EXPECT_NE(digest([](StreamHasher& h) { h.u64(1); }),
            digest([](StreamHasher& h) { h.f64(1.0); }));
  // Length prefixes: "ab"+"c" != "a"+"bc".
  EXPECT_NE(digest([](StreamHasher& h) { h.str("ab").str("c"); }),
            digest([](StreamHasher& h) { h.str("a").str("bc"); }));
  // -0.0 canonicalizes to +0.0 (they compare equal, so they must hash equal).
  EXPECT_EQ(digest([](StreamHasher& h) { h.f64(-0.0); }),
            digest([](StreamHasher& h) { h.f64(0.0); }));
  // Order is semantic.
  EXPECT_NE(digest([](StreamHasher& h) { h.u64(1).u64(2); }),
            digest([](StreamHasher& h) { h.u64(2).u64(1); }));
}

TEST(KeyedHasher, FieldOrderDoesNotMatter) {
  KeyedHasher a("test/v1");
  a.f64("horizon", 20.0).u64("seed", 7).str("kind", "kpis");
  KeyedHasher b("test/v1");
  b.str("kind", "kpis").u64("seed", 7).f64("horizon", 20.0);
  EXPECT_EQ(a.digest(), b.digest());

  KeyedHasher other_schema("test/v2");
  other_schema.f64("horizon", 20.0).u64("seed", 7).str("kind", "kpis");
  EXPECT_NE(a.digest(), other_schema.digest());
}

TEST(KeyedHasher, DuplicateKeyThrows) {
  KeyedHasher h("test/v1");
  h.u64("seed", 1).u64("seed", 2);
  EXPECT_THROW(h.digest(), DomainError);
}

// ---- Canonical model hash ---------------------------------------------------

TEST(CanonicalHash, StableAcrossParsePrintReparse) {
  const fmt::FaultMaintenanceTree first = fmt::parse_fmt(read_ei_joint());
  const std::string printed = fmt::to_text(first);
  const fmt::FaultMaintenanceTree second = fmt::parse_fmt(printed);
  EXPECT_EQ(fmt::canonical_hash(first), fmt::canonical_hash(second));
  // print ∘ parse is a fixpoint: the second print is byte-identical.
  EXPECT_EQ(printed, fmt::to_text(second));
}

TEST(CanonicalHash, IgnoresFormattingButNotSemantics) {
  const Fingerprint base = fmt::canonical_hash(fmt::parse_fmt(kModel));

  // Comments and whitespace are not content.
  std::string reformatted = "# a comment\n" + std::string(kModel) + "\n\n";
  EXPECT_EQ(base, fmt::canonical_hash(fmt::parse_fmt(reformatted)));

  const auto variant = [&](const std::string& from, const std::string& to) {
    std::string text = kModel;
    text.replace(text.find(from), from.size(), to);
    return fmt::canonical_hash(fmt::parse_fmt(text));
  };
  // Any semantic field change moves the hash: a leaf rate, a threshold, an
  // inspection interval, a corrective cost.
  EXPECT_NE(base, variant("mean=6", "mean=7"));
  EXPECT_NE(base, variant("threshold=2", "threshold=3"));
  EXPECT_NE(base, variant("period=0.25", "period=0.5"));
  EXPECT_NE(base, variant("exp(0.05)", "exp(0.06)"));
  EXPECT_NE(base, variant("cost=5000", "cost=5001"));
}

TEST(CanonicalHash, TracksPolicyMutations) {
  fmt::FaultMaintenanceTree m = fmt::parse_fmt(kModel);
  const Fingerprint base = fmt::canonical_hash(m);
  m.set_inspection_schedule(0, 0.5);
  const Fingerprint retimed = fmt::canonical_hash(m);
  EXPECT_NE(base, retimed);
  m.set_inspection_schedule(0, 0.25);
  EXPECT_EQ(base, fmt::canonical_hash(m));
  m.clear_inspections();
  EXPECT_NE(base, fmt::canonical_hash(m));
}

// ---- Settings fingerprint and full cache key --------------------------------

TEST(SettingsFingerprint, SensitiveToResultRelevantFieldsOnly) {
  smc::AnalysisSettings s;
  s.horizon = 20.0;
  s.trajectories = 1000;
  s.seed = 42;
  const Fingerprint base = settings_fingerprint(s);

  const auto changed = [&](auto&& mutate) {
    smc::AnalysisSettings t = s;
    mutate(t);
    return settings_fingerprint(t);
  };
  EXPECT_NE(base, changed([](auto& t) { t.horizon = 25.0; }));
  EXPECT_NE(base, changed([](auto& t) { t.seed = 43; }));
  EXPECT_NE(base, changed([](auto& t) { t.trajectories = 1001; }));
  EXPECT_NE(base, changed([](auto& t) { t.confidence = 0.99; }));
  EXPECT_NE(base, changed([](auto& t) { t.discount_rate = 0.03; }));
  EXPECT_NE(base, changed([](auto& t) { t.target_relative_error = 0.01; }));

  // Thread count never changes the result (bit-reproducibility contract),
  // so it must not change the key; telemetry is observational; `batch` only
  // matters under adaptive stopping.
  EXPECT_EQ(base, changed([](auto& t) { t.threads = 8; }));
  EXPECT_EQ(base, changed([](auto& t) { t.batch = 512; }));
  smc::AnalysisSettings adaptive = s;
  adaptive.target_relative_error = 0.01;
  const Fingerprint adaptive_base = settings_fingerprint(adaptive);
  adaptive.batch = 512;
  EXPECT_NE(adaptive_base, settings_fingerprint(adaptive));
}

// Cache-key continuity across the retirement of the scalar engine. The
// hexes below are what the previous release minted for the same inputs:
// with the batch kernel selected (which every key now equals, so its disk
// caches keep hitting) and with the scalar engine (whose entries must miss).
TEST(SettingsFingerprint, EngineIdentitySeparatesCacheEntries) {
  smc::AnalysisSettings s;
  s.horizon = 20.0;
  s.trajectories = 1000;
  s.seed = 42;
  EXPECT_EQ(settings_fingerprint(s).hex(), "3d893346335fd0218aac0fbef3b8dcb4");
  EXPECT_NE(settings_fingerprint(s).hex(), "c8d57fd35240ec52f373ce2a7c9e2549");
  s.threads = 8;  // execution-only: never moves the key
  EXPECT_EQ(settings_fingerprint(s).hex(), "3d893346335fd0218aac0fbef3b8dcb4");
}

TEST(CacheKey, EnginesNeverShareACacheEntry) {
  const fmt::FaultMaintenanceTree m = fmt::parse_fmt(kModel);
  smc::AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 100;
  const CacheKey key = kpi_cache_key(m, s);
  EXPECT_EQ(key.id(),
            "18fff6c30c7ebaf75e4a8fb5565bc4d1-7d227af647452d19375a5a1bccd659fb");
  EXPECT_NE(key.id(),
            "18fff6c30c7ebaf75e4a8fb5565bc4d1-ccd22d97c34c4527bb1ad1fb38b26072");
}

TEST(CacheKey, SeparatesModelAndRequest) {
  const fmt::FaultMaintenanceTree m = fmt::parse_fmt(kModel);
  smc::AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = 100;
  const CacheKey base = kpi_cache_key(m, s);

  smc::AnalysisSettings s2 = s;
  s2.seed = 99;
  const CacheKey reseeded = kpi_cache_key(m, s2);
  EXPECT_EQ(base.model, reseeded.model);
  EXPECT_NE(base.request, reseeded.request);

  fmt::FaultMaintenanceTree m2 = fmt::parse_fmt(kModel);
  m2.set_inspection_schedule(0, 1.0);
  const CacheKey repoliced = kpi_cache_key(m2, s);
  EXPECT_NE(base.model, repoliced.model);
  EXPECT_EQ(base.request, repoliced.request);

  // id() is the stable cache entry name: two 32-hex halves joined by '-'.
  EXPECT_EQ(base.id().size(), 65u);  // 32 + '-' + 32
  EXPECT_EQ(base.id(), base.model.hex() + "-" + base.request.hex());
}

}  // namespace
}  // namespace fmtree::batch
