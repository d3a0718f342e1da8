#include "fmt/parser.hpp"

#include <gtest/gtest.h>

#include "fmt/canonical.hpp"
#include "ft/bdd.hpp"
#include "util/error.hpp"

namespace fmtree::fmt {
namespace {

const char* kFullModel = R"(
  toplevel System;
  System or Electrical Mechanical;
  Electrical or Lipping Contamination;
  Mechanical vot 2 B1 B2 B3;

  Lipping ebe phases=6 mean=10 threshold=4 repair_cost=800 repair=grind;
  Contamination ebe phases=3 mean=3 threshold=2 repair_cost=250 repair=clean;
  B1 ebe phases=2 mean=40 threshold=2 repair_cost=100;
  B2 ebe phases=2 mean=40 threshold=2 repair_cost=100;
  B3 be exp(0.025);

  rdep Accel factor=3 trigger=Contamination targets Lipping;
  inspection Visual period=0.25 cost=35 targets Lipping Contamination B1 B2;
  replacement Renewal period=15 cost=5500 targets all;
  corrective cost=8000 delay=0.02 downtime_rate=50000;
)";

TEST(FmtParser, ParsesFullModel) {
  const FaultMaintenanceTree m = parse_fmt(kFullModel);
  EXPECT_EQ(m.num_ebes(), 5u);
  EXPECT_EQ(m.inspections().size(), 1u);
  EXPECT_EQ(m.replacements().size(), 1u);
  EXPECT_EQ(m.rdeps().size(), 1u);
  EXPECT_TRUE(m.corrective().enabled);
  EXPECT_DOUBLE_EQ(m.corrective().cost, 8000);
  EXPECT_DOUBLE_EQ(m.corrective().delay, 0.02);

  const ExtendedBasicEvent& lipping = m.ebe(*m.find("Lipping"));
  EXPECT_EQ(lipping.degradation.phases(), 6);
  EXPECT_EQ(lipping.degradation.threshold_phase(), 4);
  EXPECT_NEAR(lipping.degradation.mean_time_to_failure(), 10.0, 1e-12);
  EXPECT_EQ(lipping.repair.action, "grind");
  EXPECT_DOUBLE_EQ(lipping.repair.cost, 800);
}

TEST(FmtParser, PlainBeBecomesUndetectableSinglePhase) {
  const FaultMaintenanceTree m = parse_fmt(kFullModel);
  const ExtendedBasicEvent& b3 = m.ebe(*m.find("B3"));
  EXPECT_EQ(b3.degradation.phases(), 1);
  EXPECT_FALSE(b3.degradation.inspectable());
}

TEST(FmtParser, TargetsAllExpandsCorrectly) {
  const FaultMaintenanceTree m = parse_fmt(kFullModel);
  // Renewal targets all 5 leaves.
  EXPECT_EQ(m.replacements()[0].targets.size(), 5u);
}

TEST(FmtParser, InspectionTargetsAllSkipsUndetectable) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T;
    T or A B;
    A ebe phases=3 mean=5 threshold=2;
    B be exp(0.1);
    inspection I period=1 targets all;
  )");
  ASSERT_EQ(m.inspections()[0].targets.size(), 1u);
  EXPECT_EQ(m.name(m.inspections()[0].targets[0]), "A");
}

TEST(FmtParser, DefaultThresholdIsUndetectable) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T; T or A; A ebe phases=4 mean=10;
  )");
  EXPECT_FALSE(m.ebe(*m.find("A")).degradation.inspectable());
}

TEST(FmtParser, RdepWithTriggerPhase) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T;
    T or A B;
    A ebe phases=5 mean=18 threshold=2;
    B ebe phases=6 mean=10 threshold=4;
    rdep R factor=2.5 trigger=A trigger_phase=3 targets B;
  )");
  ASSERT_EQ(m.rdeps().size(), 1u);
  EXPECT_EQ(m.rdeps()[0].trigger_phase, 3);
  EXPECT_DOUBLE_EQ(m.rdeps()[0].factor, 2.5);
}

TEST(FmtParser, CorrectiveOff) {
  const FaultMaintenanceTree m = parse_fmt(R"(
    toplevel T; T or A; A be exp(1); corrective off;
  )");
  EXPECT_FALSE(m.corrective().enabled);
}

TEST(FmtParser, RejectsMalformedStatements) {
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A ebe mean=5;"), ParseError);  // no phases
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A ebe phases=2;"), ParseError);  // no mean
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A ebe phases=2.5 mean=5;"), ParseError);
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A ebe phases=2 mean=5 bogus=1;"),
               ParseError);
  EXPECT_THROW(
      parse_fmt("toplevel T; T or A; A be exp(1); inspection I cost=5 targets A;"),
      ParseError);  // no period
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A be exp(1); inspection I period=1;"),
               ParseError);  // no targets
  EXPECT_THROW(parse_fmt(
                   "toplevel T; T or A; A be exp(1); rdep R factor=2 targets A;"),
               ParseError);  // no trigger
  EXPECT_THROW(parse_fmt(
                   "toplevel T; T or A; A be exp(1); corrective off; corrective off;"),
               ParseError);  // duplicate corrective
}

TEST(FmtParser, RejectsUnknownTargets) {
  EXPECT_THROW(
      parse_fmt("toplevel T; T or A; A be exp(1); inspection I period=1 targets Zed;"),
      ParseError);
}

TEST(FmtParser, RejectsInspectionOfUndetectableLeaf) {
  EXPECT_THROW(
      parse_fmt("toplevel T; T or A; A be exp(1); inspection I period=1 targets A;"),
      ModelError);  // caught by validate()
}

TEST(FmtParser, RoundTripsThroughToText) {
  const FaultMaintenanceTree m1 = parse_fmt(kFullModel);
  const std::string text = to_text(m1);
  const FaultMaintenanceTree m2 = parse_fmt(text);
  EXPECT_EQ(m1.num_ebes(), m2.num_ebes());
  EXPECT_EQ(m1.inspections().size(), m2.inspections().size());
  EXPECT_EQ(m1.replacements().size(), m2.replacements().size());
  EXPECT_EQ(m1.rdeps().size(), m2.rdeps().size());
  EXPECT_EQ(m1.corrective().cost, m2.corrective().cost);
  for (std::size_t i = 0; i < m1.num_ebes(); ++i) {
    EXPECT_EQ(m1.ebes()[i].name, m2.ebes()[i].name);
    EXPECT_EQ(m1.ebes()[i].degradation.phases(), m2.ebes()[i].degradation.phases());
    EXPECT_EQ(m1.ebes()[i].degradation.threshold_phase(),
              m2.ebes()[i].degradation.threshold_phase());
    EXPECT_NEAR(m1.ebes()[i].degradation.mean_time_to_failure(),
                m2.ebes()[i].degradation.mean_time_to_failure(), 1e-9);
  }
  // Inspection offsets serialize explicitly, so schedules match too.
  EXPECT_DOUBLE_EQ(m1.inspections()[0].first_at, m2.inspections()[0].first_at);
}

/// to_text → parse_fmt reproduces the model's canonical hash; the name of
/// the check is reported with any failure.
void expect_round_trip(const FaultMaintenanceTree& model, const std::string& what) {
  const std::string text = to_text(model);
  const FmtParseResult reparsed = parse_fmt_collect(text);
  ASSERT_TRUE(reparsed.model.has_value()) << what << ":\n" << text;
  EXPECT_EQ(canonical_hash(*reparsed.model), canonical_hash(model)) << what << ":\n"
                                                                    << text;
}

TEST(FmtParser, NamesThatSpellKeywordsRoundTrip) {
  const std::vector<std::string> keywords = {
      "toplevel", "inspection", "replacement", "rdep", "fdep", "corrective",
      "targets", "all", "and", "or", "vot", "spare", "be", "ebe", "dormancy",
      "phases", "mean", "rate", "threshold", "repair", "repair_cost", "repair_time",
      "factor", "trigger", "trigger_phase", "period", "offset", "cost", "detect",
      "delay", "downtime_rate", "off", "never", "exp", "erlang", "erlang_mean",
      "weibull", "lognormal", "uniform", "det"};
  const DegradationModel wear = DegradationModel::erlang(2, 5.0, 2);
  for (const std::string& keyword : keywords) {
    // The keyword names a leaf: the only one the inspection visits, the
    // trigger of an rdep, and a replacement target.
    FaultMaintenanceTree leaf_model;
    const NodeId leaf = leaf_model.add_ebe(keyword, wear);
    const NodeId other = leaf_model.add_ebe("x", wear);
    leaf_model.set_top(leaf_model.add_or("T", {leaf, other}));
    leaf_model.add_rdep("R", leaf, {other}, 2.0);
    leaf_model.add_inspection(InspectionModule{"I", 1.0, -1.0, 5.0, {leaf}});
    leaf_model.add_replacement(ReplacementModule{"Z", 4.0, -1.0, 9.0, {leaf}});
    expect_round_trip(leaf_model, "leaf '" + keyword + "'");

    // The keyword names a gate under the top event.
    FaultMaintenanceTree gate_model;
    const NodeId a = gate_model.add_ebe("a", wear);
    const NodeId b = gate_model.add_ebe("b", wear);
    const NodeId gate = gate_model.add_and(keyword, {a, b});
    gate_model.set_top(gate_model.add_or("T", {gate, gate_model.add_ebe("c", wear)}));
    gate_model.add_inspection(InspectionModule{"I", 1.0, -1.0, 5.0, {a}});
    expect_round_trip(gate_model, "gate '" + keyword + "'");
  }
}

TEST(FmtParser, QuotedAllTargetsTheLeafNamedAll) {
  const std::string model =
      "toplevel T;\n"
      "T or all x;\n"
      "all ebe phases=2 mean=5 threshold=2;\n"
      "x ebe phases=2 mean=5 threshold=2;\n";
  const FaultMaintenanceTree quoted =
      parse_fmt(model + "inspection I period=1 targets \"all\";");
  ASSERT_EQ(quoted.inspections()[0].targets.size(), 1u);
  EXPECT_EQ(quoted.name(quoted.inspections()[0].targets[0]), "all");
  const FaultMaintenanceTree bare =
      parse_fmt(model + "inspection I period=1 targets all;");
  EXPECT_EQ(bare.inspections()[0].targets.size(), 2u);
}

// Static fault trees: the toplevel / and / or / vot / be statements alone.

TEST(FtParser, ParsesSimpleTree) {
  const ft::FaultTree t = parse_fmt(R"(
    toplevel System;
    System or A B;
    A be exp(0.5);
    B be erlang(3, 1.0);
  )").structure();
  EXPECT_EQ(t.name(t.top()), "System");
  EXPECT_EQ(t.basic_events().size(), 2u);
  EXPECT_EQ(t.basic(*t.find("A")).lifetime, Distribution::exponential(0.5));
  EXPECT_EQ(t.basic(*t.find("B")).lifetime, Distribution::erlang(3, 1.0));
}

TEST(FtParser, ForwardReferencesAllowed) {
  const ft::FaultTree t = parse_fmt(R"(
    toplevel Top;
    A be exp(1);
    Top and A B;
    B be exp(2);
  )").structure();
  EXPECT_EQ(t.gate(t.top()).type, GateType::And);
}

TEST(FtParser, VotingGateWithThreshold) {
  const ft::FaultTree t = parse_fmt(R"(
    toplevel V;
    V vot 2 A B C;
    A be exp(1); B be exp(1); C be exp(1);
  )").structure();
  EXPECT_EQ(t.gate(t.top()).type, GateType::Voting);
  EXPECT_EQ(t.gate(t.top()).k, 2);
}

TEST(FtParser, QuotedNamesAndComments) {
  const ft::FaultTree t = parse_fmt(R"(
    # a comment
    toplevel "my system";   # trailing comment
    "my system" or "part 1";
    "part 1" be exp(1);
  )").structure();
  EXPECT_TRUE(t.find("my system").has_value());
  EXPECT_TRUE(t.find("part 1").has_value());
}

TEST(FtParser, AllDistributionForms) {
  const ft::FaultTree t = parse_fmt(R"(
    toplevel T;
    T or A B C D E F G;
    A be exp(2);
    B be erlang(4, 0.5);
    C be erlang_mean(4, 8);
    D be weibull(1.5, 2);
    E be lognormal(0.1, 0.9);
    F be uniform(1, 2);
    G be det(3);
  )").structure();
  EXPECT_EQ(t.basic(*t.find("C")).lifetime, Distribution::erlang(4, 0.5));
  EXPECT_EQ(t.basic(*t.find("G")).lifetime, Distribution::deterministic(3));
}

TEST(FtParser, ErrorsCarryLineNumbers) {
  try {
    parse_fmt("toplevel T;\nT or A;\nA be exp(0);\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(FtParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_fmt("T or A; A be exp(1);"), ParseError);  // no toplevel
  EXPECT_THROW(parse_fmt("toplevel T; T or; "), ParseError);    // no children
  EXPECT_THROW(parse_fmt("toplevel T; T unknown A; A be exp(1);"), ParseError);
  // missing trailing ;
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A be exp(1)"), ParseError);
  EXPECT_THROW(parse_fmt("toplevel T; T or A; A be zeta(1);"), ParseError);
  EXPECT_THROW(parse_fmt("toplevel T; T vot 0 A B; A be exp(1); B be exp(1);"),
               ParseError);
  EXPECT_THROW(parse_fmt("toplevel T; toplevel U; T or A; A be exp(1);"), ParseError);
  EXPECT_THROW(parse_fmt("toplevel T; T or A; T or B; A be exp(1); B be exp(1);"),
               ParseError);  // duplicate definition
}

TEST(FtParser, RejectsUndefinedAndUnreachableAndCyclic) {
  EXPECT_THROW(parse_fmt("toplevel T; T or Missing;"), ModelError);
  EXPECT_THROW(parse_fmt(R"(
    toplevel T; T or A; A be exp(1); Orphan be exp(1);
  )"),
               ModelError);
  EXPECT_THROW(parse_fmt(R"(
    toplevel T; T or U; U or T;
  )"),
               ModelError);
}

TEST(FtParser, RoundTripsThroughToText) {
  const std::string source = R"(
    toplevel Sys;
    Sys or M E;
    M vot 2 A B C;
    E and D F;
    A be exp(0.1); B be exp(0.2); C be exp(0.3);
    D be erlang(2, 0.5); F be weibull(1.5, 4);
  )";
  const ft::FaultTree t1 = parse_fmt(source).structure();
  const ft::FaultTree t2 = parse_fmt(to_text(parse_fmt(source))).structure();
  // Same structure: identical probability at several mission times.
  for (double time : {0.5, 1.0, 5.0})
    EXPECT_NEAR(top_event_probability(t1, time), top_event_probability(t2, time), 1e-12);
  EXPECT_EQ(t1.basic_events().size(), t2.basic_events().size());
  EXPECT_EQ(t1.gates().size(), t2.gates().size());
}

}  // namespace
}  // namespace fmtree::fmt
