// Compiling policy scripts: compiled-table structure, the L12x/L13x
// diagnostics with recovery, and the fingerprint semantics the result cache
// relies on — formatting-invariant, constant-sensitive, name-agnostic.
#include <gtest/gtest.h>

#include <algorithm>

#include "batch/fingerprint.hpp"
#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::lang {
namespace {

const char* const kScript = R"(
policy "unit";
budget opex = 100 refill 50 every 1;
crew 3;
calendar c every 0.5 offset 0.25 cost 10 targets all;
rule c {
  if phase >= threshold and budget(opex) >= 20 then repair, spend(opex, 20);
}
)";

TEST(LangCompile, CompilesTables) {
  const CompiledPolicy p = compile_policy(kScript);
  EXPECT_EQ(p.name, "unit");
  EXPECT_EQ(p.crew, 3u);
  ASSERT_EQ(p.budgets.size(), 1u);
  EXPECT_EQ(p.budgets[0].name, "opex");
  EXPECT_DOUBLE_EQ(p.budgets[0].initial, 100.0);
  EXPECT_DOUBLE_EQ(p.budgets[0].refill_amount, 50.0);
  EXPECT_DOUBLE_EQ(p.budgets[0].refill_period, 1.0);
  ASSERT_EQ(p.calendars.size(), 1u);
  EXPECT_DOUBLE_EQ(p.calendars[0].period, 0.5);
  EXPECT_DOUBLE_EQ(p.calendars[0].first_at, 0.25);
  EXPECT_DOUBLE_EQ(p.calendars[0].cost, 10.0);
  EXPECT_TRUE(p.calendars[0].targets_all);
  ASSERT_EQ(p.statements.size(), 1u);
  ASSERT_EQ(p.actions.size(), 2u);
  EXPECT_EQ(p.actions[0].kind, Action::Kind::RepairSelf);
  EXPECT_EQ(p.actions[1].kind, Action::Kind::Spend);
}

TEST(LangCompile, RecoveryReportsEveryError) {
  Diagnostics diags;
  const auto p = compile_policy(R"(
policy "broken";
calendar c every;          # L120: missing number
rule ghost { repair; }     # L130: unknown calendar
rule c { if phase then fix; }  # L122: bad action (c exists? no -> L130)
)",
                                diags);
  EXPECT_FALSE(p.has_value());
  EXPECT_GE(diags.error_count(), 3u);
  for (const Diagnostic& d : diags.all()) {
    ASSERT_EQ(d.code.size(), 4u) << d.code;
    EXPECT_EQ(d.code[0], 'L');
    EXPECT_EQ(d.code[1], '1');
    EXPECT_GT(d.loc.line, 0u) << d.message;
    EXPECT_GT(d.loc.column, 0u) << d.message;
  }
}

TEST(LangCompile, WarnsOnCalendarWithoutRule) {
  Diagnostics diags;
  const auto p = compile_policy("calendar idle every 1 targets all;", diags);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(diags.all().size(), 1u);
  EXPECT_EQ(diags.all()[0].code, "L134");
  EXPECT_EQ(diags.all()[0].severity, Severity::Warning);
}

TEST(LangCompile, ThrowingOverloadCarriesDiagnostics) {
  try {
    compile_policy("calendar c every;");
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "L120");
  }
}

// ---- Fingerprint semantics --------------------------------------------------

TEST(LangFingerprint, FormattingInvariant) {
  const CompiledPolicy a = compile_policy(
      "policy \"p\"; calendar c every 0.25 cost 35 targets all;\n"
      "rule c { if phase >= threshold then repair; }");
  const CompiledPolicy b = compile_policy(
      "# a comment\npolicy \"p\";\n\ncalendar c\n  every 0.25\n  cost 35\n"
      "  targets all;\nrule c {\n  if phase >= threshold\n    then repair;\n}\n");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(LangFingerprint, PolicyNameExcluded) {
  const CompiledPolicy a = compile_policy(
      "policy \"first\"; calendar c every 1 targets all; rule c { repair; }");
  const CompiledPolicy b = compile_policy(
      "policy \"renamed\"; calendar c every 1 targets all; rule c { repair; }");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(LangFingerprint, ConstantChangesFingerprint) {
  const char* const with_2 =
      "calendar c every 1 targets all; rule c { if phase >= 2 then repair; }";
  const char* const with_3 =
      "calendar c every 1 targets all; rule c { if phase >= 3 then repair; }";
  EXPECT_NE(compile_policy(with_2).fingerprint, compile_policy(with_3).fingerprint);
}

TEST(LangFingerprint, StructureChangesFingerprint) {
  const CompiledPolicy base = compile_policy(
      "calendar c every 1 cost 5 targets all; rule c { repair; }");
  EXPECT_NE(base.fingerprint,
            compile_policy("calendar c every 2 cost 5 targets all; "
                           "rule c { repair; }")
                .fingerprint);
  EXPECT_NE(base.fingerprint,
            compile_policy("crew 1; calendar c every 1 cost 5 targets all; "
                           "rule c { repair; }")
                .fingerprint);
  EXPECT_NE(base.fingerprint,
            compile_policy("calendar c every 1 cost 5 targets lipping; "
                           "rule c { repair; }")
                .fingerprint);
}

// ---- Cache-key semantics ----------------------------------------------------

const char* const kModel = R"(
toplevel top;
top or a b;
a ebe phases=3 mean=3 threshold=2 repair_cost=10 repair=fix_a;
b ebe phases=2 mean=5 threshold=2 repair_cost=20 repair=fix_b;
inspection insp period=0.5 targets a b;
corrective cost=100;
)";

smc::AnalysisSettings settings_with(std::shared_ptr<const CompiledPolicy> p) {
  smc::AnalysisSettings s;
  s.trajectories = 100;
  s.policy = std::move(p);
  return s;
}

TEST(LangCacheKey, ScriptedNeverSharesWithBuiltIn) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  // The scripted twin of the model's own inspection module.
  const auto scripted = std::make_shared<const CompiledPolicy>(compile_policy(
      "calendar insp every 0.5 targets all; "
      "rule insp { if phase >= threshold then repair; }"));
  const batch::CacheKey built_in = batch::kpi_cache_key(model, settings_with(nullptr));
  const batch::CacheKey with_script =
      batch::kpi_cache_key(model, settings_with(scripted));
  EXPECT_NE(built_in.id(), with_script.id());
}

TEST(LangCacheKey, ReformattingPreservesKey) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const auto a = std::make_shared<const CompiledPolicy>(compile_policy(
      "policy \"x\"; calendar c every 1 targets a, b; "
      "rule c { if phase >= threshold then repair; }"));
  const auto b = std::make_shared<const CompiledPolicy>(compile_policy(
      "# reformatted, renamed, same semantics\npolicy \"y\";\n"
      "calendar c every 1\n  targets a, b;\nrule c {\n"
      "  if phase >= threshold then repair;\n}\n"));
  EXPECT_EQ(batch::kpi_cache_key(model, settings_with(a)).id(),
            batch::kpi_cache_key(model, settings_with(b)).id());
}

TEST(LangCacheKey, ThresholdConstantChangesKey) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(kModel);
  const auto a = std::make_shared<const CompiledPolicy>(compile_policy(
      "calendar c every 1 targets all; rule c { if phase >= 2 then repair; }"));
  const auto b = std::make_shared<const CompiledPolicy>(compile_policy(
      "calendar c every 1 targets all; rule c { if phase >= 3 then repair; }"));
  EXPECT_NE(batch::kpi_cache_key(model, settings_with(a)).id(),
            batch::kpi_cache_key(model, settings_with(b)).id());
}

TEST(LangCacheKey, NoPolicyFingerprintIsStable) {
  // The conditional-field pattern: settings without a policy hash exactly as
  // they did before the field existed, so pre-existing caches stay valid.
  const smc::AnalysisSettings plain = settings_with(nullptr);
  smc::AnalysisSettings detached = settings_with(nullptr);
  detached.policy.reset();
  EXPECT_EQ(batch::settings_fingerprint(plain), batch::settings_fingerprint(detached));
}

}  // namespace
}  // namespace fmtree::lang
