#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "util/error.hpp"

namespace fmtree::fault {
namespace {

TEST(FaultSpecGrammar, ParsesModesTriggersAndLimit) {
  const FaultSpec err = parse_fault_spec("cache.write:error");
  EXPECT_EQ(err.site, "cache.write");
  EXPECT_EQ(err.mode, Mode::Error);
  EXPECT_LT(err.probability, 0.0);
  EXPECT_EQ(err.nth, 0u);

  const FaultSpec coin = parse_fault_spec("cache.read:corrupt,p=0.25,seed=9");
  EXPECT_EQ(coin.mode, Mode::Corrupt);
  EXPECT_DOUBLE_EQ(coin.probability, 0.25);
  EXPECT_EQ(coin.seed, 9u);

  const FaultSpec stall = parse_fault_spec("sweep.task:stall=150,nth=3,limit=2");
  EXPECT_EQ(stall.mode, Mode::Stall);
  EXPECT_EQ(stall.stall_ms, 150u);
  EXPECT_EQ(stall.nth, 3u);
  EXPECT_EQ(stall.limit, 2u);
}

TEST(FaultSpecGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec(""), DomainError);
  EXPECT_THROW(parse_fault_spec("no-colon"), DomainError);
  EXPECT_THROW(parse_fault_spec(":error"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:unknown-mode"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:error,p=0"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:error,p=1.5"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:error,nth=0"), DomainError);
  EXPECT_THROW(parse_fault_spec("site:error,limit=0"), DomainError);
  // p and nth are mutually exclusive triggers.
  EXPECT_THROW(parse_fault_spec("site:error,p=0.5,nth=2"), DomainError);
}

TEST(FaultRegistry, DisarmedSiteIsInert) {
  // No spec armed for this site: the fast path must return false and record
  // nothing, regardless of what else is armed.
  EXPECT_FALSE(fault_point("test.never-armed"));
  const Scope scope({"test.other-site:error"});
  EXPECT_FALSE(fault_point("test.never-armed"));
  EXPECT_THROW(fault_point("test.other-site"), InjectedFault);
}

TEST(FaultRegistry, ErrorModeThrowsWithSiteName) {
  const Scope scope({"test.err:error"});
  try {
    fault_point("test.err");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "test.err");
    EXPECT_NE(std::string(e.what()).find("test.err"), std::string::npos);
  }
}

TEST(FaultRegistry, NthTriggerFiresExactlyOnce) {
  const Scope scope({"test.nth:corrupt,nth=3"});
  int fires = 0;
  int fired_at = 0;
  for (int hit = 1; hit <= 10; ++hit) {
    if (fault_point("test.nth")) {
      ++fires;
      fired_at = hit;
    }
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, 3);
}

TEST(FaultRegistry, LimitCapsTotalFires) {
  const Scope scope({"test.limit:corrupt,limit=2"});
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (fault_point("test.limit")) ++fires;
  EXPECT_EQ(fires, 2);
}

TEST(FaultRegistry, ProbabilityCoinIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    const Scope scope({"test.coin:corrupt,p=0.5,seed=" + std::to_string(seed)});
    std::set<int> fired;
    for (int i = 0; i < 64; ++i)
      if (fault_point("test.coin")) fired.insert(i);
    return fired;
  };
  // Hit indices are per-arming, so two armings with the same seed replay the
  // exact same fire pattern; a different seed gives a different pattern.
  const auto a1 = run(42);
  const auto a2 = run(42);
  const auto b = run(43);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  // ~50% of 64 hits should fire; 10..54 is a >6-sigma band.
  EXPECT_GT(a1.size(), 10u);
  EXPECT_LT(a1.size(), 54u);
}

TEST(FaultRegistry, StallModeSleepsAtTheSite) {
  const Scope scope({"test.stall:stall=30,nth=1"});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(fault_point("test.stall"));  // stall, not corrupt
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  EXPECT_GE(elapsed_ms, 25.0);
  EXPECT_FALSE(fault_point("test.stall"));  // nth=1: only the first hit
}

TEST(FaultScope, DisarmsItsSitesOnExit) {
  {
    const Scope scope({"test.scoped:error"});
    EXPECT_THROW(fault_point("test.scoped"), InjectedFault);
  }
  EXPECT_FALSE(fault_point("test.scoped"));
  // Malformed specs throw before arming anything.
  EXPECT_THROW(Scope({"test.scoped:error", "broken spec"}), DomainError);
  EXPECT_FALSE(fault_point("test.scoped"));
}

TEST(FaultScope, PutsBackTheSpecItDisplaced) {
  {
    // The outer spec stands for one armed from FMTREE_FAULTS. It resumes with
    // its hit count where it was: its second hit is the first after the
    // inner scope.
    const Scope outer({"test.shadowed:corrupt,nth=2"});
    EXPECT_FALSE(fault_point("test.shadowed"));
    {
      const Scope inner({"test.shadowed:error", "test.shadowed:stall=0"});
      EXPECT_FALSE(fault_point("test.shadowed"));  // the newest spec rules
    }
    EXPECT_TRUE(fault_point("test.shadowed"));
    EXPECT_FALSE(fault_point("test.shadowed"));
  }
  EXPECT_FALSE(fault_point("test.shadowed"));
}

TEST(FaultScope, FiresFeedTheInjectedMetricCounter) {
  const std::uint64_t before = FaultRegistry::instance().fires();
  const Scope scope({"test.metric:corrupt"});
  (void)fault_point("test.metric");
  (void)fault_point("test.metric");
  EXPECT_EQ(FaultRegistry::instance().fires(), before + 2);
}

}  // namespace
}  // namespace fmtree::fault
