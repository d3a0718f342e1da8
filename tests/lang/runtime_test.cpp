// Policy runtime semantics against a synthetic host (no engine): the model
// transform, target resolution, seasonal windows, lazy budgets, the repair
// guards of run_round (idempotence, crew cap, failed/under-repair), what
// run_round reports, and which calendars are time-invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "lang/runtime.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::lang {
namespace {

const char* const kModel = R"(
toplevel top;
top or a b c;
a ebe phases=3 mean=3 threshold=2 repair_cost=10 repair=fix_a;
b ebe phases=4 mean=8 threshold=3 repair_cost=20 repair=fix_b;
c ebe phases=1 mean=40 threshold=2;
inspection insp period=1 targets a b;
corrective cost=100;
)";

/// A host over plain arrays; records repair calls in order.
struct FakeState {
  std::vector<double> phase;
  std::vector<std::uint8_t> failed;
  std::vector<std::uint8_t> busy;
  std::vector<std::uint32_t> repaired;
};

auto host_over(FakeState& st) {
  return make_host([&](std::uint32_t l) { return st.phase[l]; },
                   [&](std::uint32_t l) { return st.failed[l] != 0; },
                   [&](std::uint32_t l) { return st.busy[l] != 0; },
                   [&](std::uint32_t l) { st.repaired.push_back(l); });
}

TEST(LangRuntime, ApplyPolicyReplacesInspections) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "calendar narrow every 0.5 offset 0.1 cost 7 targets a;\n"
      "rule narrow { repair; }\n"
      "calendar wide every 2 targets all;\n"
      "rule wide { repair; }\n");
  const fmt::FaultMaintenanceTree out = apply_policy(policy, model);
  ASSERT_EQ(out.inspections().size(), 2u);
  EXPECT_EQ(out.inspections()[0].name, "narrow");
  EXPECT_DOUBLE_EQ(out.inspections()[0].period, 0.5);
  EXPECT_DOUBLE_EQ(out.inspections()[0].first_at, 0.1);
  EXPECT_DOUBLE_EQ(out.inspections()[0].cost, 7.0);
  ASSERT_EQ(out.inspections()[0].targets.size(), 1u);
  // `targets all` resolves to the inspectable leaves only (c has a
  // threshold above its phase count).
  ASSERT_EQ(out.inspections()[1].targets.size(), 2u);
  EXPECT_DOUBLE_EQ(out.inspections()[1].first_at, 2.0);  // offset defaults to period
}

TEST(LangRuntime, UnknownTargetIsDiagnosed) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "calendar c every 1 targets nonsuch; rule c { repair; }");
  try {
    apply_policy(policy, model);
    FAIL() << "expected ModelErrors";
  } catch (const ModelErrors& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "L135");
  }
}

TEST(LangRuntime, RoundActiveWindow) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "calendar c every 0.1 window 0.25..0.75 of 1 targets a; rule c { repair; }");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  EXPECT_FALSE(round_active(bound, 0, 0.1));
  EXPECT_TRUE(round_active(bound, 0, 0.25));
  EXPECT_TRUE(round_active(bound, 0, 0.5));
  EXPECT_FALSE(round_active(bound, 0, 0.75));
  EXPECT_FALSE(round_active(bound, 0, 1.1));   // wraps with the cycle
  EXPECT_TRUE(round_active(bound, 0, 1.5));
}

TEST(LangRuntime, BudgetRefillsLazily) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "budget opex = 100 refill 50 every 1;\n"
      "calendar c every 1 targets a; rule c { spend(opex, 30); }");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  PolicyState st;
  st.reset(bound);
  EXPECT_DOUBLE_EQ(bound.budget_available(0, 0.0, st), 100.0);
  EXPECT_DOUBLE_EQ(bound.budget_available(0, 2.5, st), 200.0);

  FakeState fake{{1, 1, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  const auto host = host_over(fake);
  run_round(bound, 0, 1.0, host, st);
  EXPECT_DOUBLE_EQ(st.budget_spent[0], 30.0);
  EXPECT_DOUBLE_EQ(bound.budget_available(0, 1.0, st), 120.0);
}

TEST(LangRuntime, RepairGuards) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "calendar c every 1 targets a, b;\n"
      "rule c {\n"
      "  if phase >= threshold then repair;\n"
      "  if phase >= threshold then repair;\n"  // idempotent per round
      "}");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  PolicyState st;
  st.reset(bound);

  // Both above threshold: each repaired exactly once despite two statements.
  FakeState fake{{2, 3, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  run_round(bound, 0, 1.0, host_over(fake), st);
  EXPECT_EQ(fake.repaired, (std::vector<std::uint32_t>{0, 1}));

  // Failed and under-repair components are skipped.
  FakeState skip{{4, 3, 1}, {1, 0, 0}, {0, 1, 0}, {}};
  run_round(bound, 0, 2.0, host_over(skip), st);
  EXPECT_TRUE(skip.repaired.empty());
}

TEST(LangRuntime, CrewCapLimitsRepairsPerRound) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "crew 1;\n"
      "calendar c every 1 targets a, b;\n"
      "rule c { if phase >= threshold then repair; }");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  PolicyState st;
  st.reset(bound);
  FakeState fake{{2, 3, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  run_round(bound, 0, 1.0, host_over(fake), st);
  EXPECT_EQ(fake.repaired, (std::vector<std::uint32_t>{0}));

  // The cap is per round, not per trajectory.
  fake.repaired.clear();
  run_round(bound, 0, 2.0, host_over(fake), st);
  EXPECT_EQ(fake.repaired, (std::vector<std::uint32_t>{0}));
}

TEST(LangRuntime, NamedReadsAndRepairTargetsOtherComponents) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "calendar c every 1 targets a;\n"
      "rule c { if phase(b) >= threshold(b) then repair(b); }");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  PolicyState st;
  st.reset(bound);
  FakeState fake{{1, 3, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  run_round(bound, 0, 1.0, host_over(fake), st);
  EXPECT_EQ(fake.repaired, (std::vector<std::uint32_t>{1}));
}

TEST(LangRuntime, RunRoundReportsWhetherItActed) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const CompiledPolicy policy = compile_policy(
      "budget log = 0;\n"
      "calendar c every 1 targets a, b;\n"
      "rule c { if phase >= threshold then repair; }\n"
      "calendar d every 1 targets a;\n"
      "rule d { if failed then repair else spend(log, 0); }");
  const fmt::FaultMaintenanceTree transformed = apply_policy(policy, model);
  const BoundPolicy bound = bind_policy(policy, transformed);
  PolicyState st;
  st.reset(bound);

  // Nothing at its threshold: no repair, no spend.
  FakeState below{{1, 2, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  EXPECT_FALSE(run_round(bound, 0, 1.0, host_over(below), st));
  // Eligible but guarded away (failed, already under repair): still idle.
  FakeState guarded{{4, 3, 1}, {1, 0, 0}, {0, 1, 0}, {}};
  EXPECT_FALSE(run_round(bound, 0, 1.0, host_over(guarded), st));
  EXPECT_TRUE(guarded.repaired.empty());
  // One repair.
  FakeState due{{1, 3, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  EXPECT_TRUE(run_round(bound, 0, 1.0, host_over(due), st));
  EXPECT_EQ(due.repaired, (std::vector<std::uint32_t>{1}));
  // A spend acts even when it spends nothing and repairs nothing.
  FakeState working{{1, 1, 1}, {0, 0, 0}, {0, 0, 0}, {}};
  EXPECT_TRUE(run_round(bound, 1, 1.0, host_over(working), st));
  EXPECT_TRUE(working.repaired.empty());
  // A failed component is not repairable, so the rule's repair is guarded
  // away and no spend is reached.
  FakeState failed{{4, 1, 1}, {1, 0, 0}, {0, 0, 0}, {}};
  EXPECT_FALSE(run_round(bound, 1, 1.0, host_over(failed), st));
}

std::string slurp(const std::string& path) {
  std::ifstream file(std::string(FMTREE_SOURCE_DIR) + "/" + path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// The time-invariance flags bind_policy gives the calendars of `script`
/// over the EI-joint.
std::vector<std::uint8_t> time_invariant_flags(const std::string& script) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(slurp("models/ei_joint.fmt"));
  const CompiledPolicy policy = compile_policy(script);
  return bind_policy(policy, apply_policy(policy, model)).time_invariant;
}

TEST(LangRuntime, TimeInvariantCalendars) {
  using Flags = std::vector<std::uint8_t>;
  const auto example = [](const char* name) {
    return time_invariant_flags(slurp(std::string("examples/policies/") + name));
  };
  // Rounds that read only the components' state fast-forward...
  EXPECT_EQ(example("periodic.mpl"), Flags{1});
  EXPECT_EQ(example("opportunistic.mpl"), Flags{1});
  EXPECT_EQ(example("condition_based.mpl"), (Flags{1, 1}));
  // ...a seasonal window, a budget read or a clock read rules it out.
  EXPECT_EQ(example("seasonal.mpl"), Flags{0});
  EXPECT_EQ(example("shared_crew.mpl"), Flags{0});
  EXPECT_EQ(time_invariant_flags("calendar c every 1 window 0..0.5 of 1 targets all;\n"
                                 "rule c { if phase >= threshold then repair; }"),
            Flags{0});
  EXPECT_EQ(time_invariant_flags("calendar c every 1 targets all;\n"
                                 "rule c { if phase >= threshold and time > 2\n"
                                 "         then repair; }"),
            Flags{0});
  EXPECT_EQ(time_invariant_flags("budget b = 5;\n"
                                 "calendar c every 1 targets all;\n"
                                 "rule c { if phase >= threshold\n"
                                 "         then repair, spend(b, time); }"),
            Flags{0});
  // A calendar is judged by its own statements only.
  EXPECT_EQ(time_invariant_flags("budget b = 5;\n"
                                 "calendar c every 1 targets all;\n"
                                 "rule c { if phase >= threshold\n"
                                 "         then repair, spend(b, 1); }\n"
                                 "calendar d every 2 targets all;\n"
                                 "rule d { if budget(b) > 0 then repair; }"),
            (Flags{1, 0}));
}

}  // namespace
}  // namespace fmtree::lang
