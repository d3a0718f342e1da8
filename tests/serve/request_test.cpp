// fmtree.request/v1 schema tests: stable R-codes, canonical (hexfloat)
// serialization round-trips, and the CLI-identical policy expansion that
// makes a served sweep cache the very same jobs as a standalone one.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>

#include "batch/fingerprint.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/canonical.hpp"
#include "serve/request.hpp"
#include "util/error.hpp"

namespace fmtree::serve {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

Request sweep_request() {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 7.5;
  r.settings.trajectories = 300;
  r.settings.seed = 9;
  r.settings.confidence = 0.9;
  r.frequencies = {0, 2, 4};
  r.has_policy = true;
  return r;
}

std::string expect_code(const std::function<void()>& f) {
  try {
    f();
  } catch (const RequestError& e) {
    EXPECT_FALSE(e.diagnostics().empty());
    return e.code();
  }
  return "(no throw)";
}

TEST(ServeRequest, EncodeParsePreservesEveryFieldBitExactly) {
  Request original = sweep_request();
  original.id = "job-42";
  original.priority = 7;
  const std::string text = encode_request(original);
  const Request parsed = parse_request(text);
  EXPECT_EQ(parsed.id, "job-42");
  EXPECT_EQ(parsed.priority, 7);
  EXPECT_EQ(parsed.model_text, original.model_text);
  EXPECT_EQ(parsed.has_policy, true);
  ASSERT_EQ(parsed.frequencies.size(), original.frequencies.size());
  // Hexfloat canonical form: a re-encode of the parse is byte-identical.
  EXPECT_EQ(encode_request(parsed), text);
  // The settings fingerprint — hence every cache key — survives the trip.
  EXPECT_EQ(batch::settings_fingerprint(parsed.settings).hex(),
            batch::settings_fingerprint(original.settings).hex());
}

TEST(ServeRequest, AcceptsPlainNumbersWhereHexfloatsAreCanonical) {
  const Request r = parse_request(R"({
    "schema": "fmtree.request/v1",
    "model": {"ref": "ei_joint.fmt"},
    "settings": {"horizon": 20, "trajectories": 1000, "confidence": 0.99}
  })");
  EXPECT_EQ(r.model_ref, "ei_joint.fmt");
  EXPECT_DOUBLE_EQ(r.settings.horizon, 20.0);
  EXPECT_DOUBLE_EQ(r.settings.confidence, 0.99);
  EXPECT_FALSE(r.has_policy);
}

TEST(ServeRequest, StableDiagnosticCodes) {
  // R110: not even JSON / not an object.
  EXPECT_EQ(expect_code([] { parse_request("{oops"); }), "R110");
  EXPECT_EQ(expect_code([] { parse_request("[1,2]"); }), "R110");
  // R111: schema tag missing or unsupported.
  EXPECT_EQ(expect_code([] { parse_request(R"({"model": {"ref": "x"}})"); }),
            "R111");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v99",
                                "model": {"ref": "x"}})");
            }),
            "R111");
  // R112: structurally valid JSON that violates the schema.
  EXPECT_EQ(expect_code([] { parse_request(R"({"schema": "fmtree.request/v1"})"); }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"inline": "a", "ref": "b"}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"}, "surprise": 1})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "settings": {"horizon": -1}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "settings": {"engine": "quantum"}})");
            }),
            "R112");
}

TEST(ServeRequest, RemovedEngineFieldIsRejectedWithAHint) {
  // The schema once carried settings.engine; with one trajectory engine the
  // field is gone, and a client still sending it learns which field to drop.
  for (const char* engine : {"batch", "scalar", "default"}) {
    try {
      parse_request(std::string(R"({"schema": "fmtree.request/v1",
                                    "model": {"ref": "x"},
                                    "settings": {"engine": ")") +
                    engine + R"("}})");
      ADD_FAILURE() << "settings.engine = " << engine << " was accepted";
    } catch (const RequestError& e) {
      EXPECT_EQ(e.code(), "R112");
      ASSERT_EQ(e.diagnostics().size(), 1u);
      EXPECT_NE(e.diagnostics()[0].message.find("settings.engine"), std::string::npos);
      EXPECT_NE(e.diagnostics()[0].hint.find("settings.engine"), std::string::npos);
    }
  }
  EXPECT_EQ(encode_request(sweep_request()).find("engine"), std::string::npos);
}

TEST(ServeRequest, PrepareExpandsThePolicyGridWithCliIdenticalLabels) {
  const PreparedRequest prepared = prepare(sweep_request(), "models");
  ASSERT_EQ(prepared.jobs.size(), 3u);
  EXPECT_EQ(prepared.jobs[0].label, "no-inspection");
  EXPECT_EQ(prepared.jobs[1].label, "2x-per-year");
  EXPECT_EQ(prepared.jobs[2].label, "4x-per-year");
  EXPECT_TRUE(prepared.jobs[0].model.inspections().empty());
}

TEST(ServeRequest, PrepareWithoutPolicyYieldsOneAnalysisJob) {
  Request r = sweep_request();
  r.frequencies.clear();
  r.has_policy = false;
  const PreparedRequest prepared = prepare(r, "models");
  ASSERT_EQ(prepared.jobs.size(), 1u);
  EXPECT_EQ(prepared.jobs[0].label, "analysis");
}

TEST(ServeRequest, PrepareRejectsEscapingModelRefsAndBadModels) {
  Request escaping = sweep_request();
  escaping.model_text.clear();
  escaping.model_ref = "../secrets.fmt";
  EXPECT_EQ(expect_code([&] { prepare(escaping, "models"); }), "R112");

  Request missing = sweep_request();
  missing.model_text.clear();
  missing.model_ref = "definitely-not-there.fmt";
  EXPECT_EQ(expect_code([&] { prepare(missing, "models"); }), "R112");

  // R113: the model is the problem, carrying parse diagnostics.
  Request broken = sweep_request();
  broken.model_text = "toplevel T;\nT or A;\n";  // A undefined
  EXPECT_EQ(expect_code([&] { prepare(broken, "models"); }), "R113");
}

TEST(ServeRequest, PrepareRejectsAnInspectionSweepOfAnUninspectableModel) {
  Request uninspectable = sweep_request();
  uninspectable.model_text = R"(
    toplevel T;
    T or A;
    A be exp(0.2);
    corrective cost=100 delay=0;
  )";
  uninspectable.frequencies = {0, 2};
  try {
    prepare(uninspectable, "models");
    FAIL() << "expected R112";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R112");
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].message, "model has no inspection modules to sweep");
  }
}

// The library's cost curve and a sweep of the EI-joint model file build
// their jobs through one function, so at equal settings they share every
// label and cache key.
TEST(ServeRequest, PreparedSweepSharesTheCostCurvePlanKeys) {
  smc::AnalysisSettings s;
  s.horizon = 20.0;
  s.trajectories = 500;
  s.seed = 11;
  Request r;
  r.model_ref = "ei_joint.fmt";
  r.settings = s;
  r.frequencies = eijoint::cost_curve_frequencies();
  r.has_policy = true;
  const PreparedRequest prepared =
      prepare(r, std::string(FMTREE_SOURCE_DIR) + "/models");
  const batch::SweepPlan plan =
      eijoint::cost_curve_plan(eijoint::EiJointParameters::defaults(), s);
  ASSERT_EQ(plan.jobs.size(), prepared.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const batch::SweepJob& library = plan.jobs[i];
    const batch::SweepJob& served = prepared.jobs[i];
    EXPECT_EQ(library.label, served.label);
    EXPECT_TRUE(batch::kpi_cache_key(library.model, library.settings) ==
                batch::kpi_cache_key(served.model, served.settings))
        << library.label;
  }
}

TEST(ServeRequest, DirectoryRefsAreR112) {
  // A directory opens like a file but reads nothing: a ref naming one is
  // refused like a missing file, not prepared as empty text.
  const std::string root = std::string(FMTREE_SOURCE_DIR) + "/examples";
  Request model_dir = sweep_request();
  model_dir.model_text.clear();
  model_dir.model_ref = ".";
  EXPECT_EQ(expect_code([&] { prepare(model_dir, root); }), "R112");

  Request script_dir = sweep_request();
  Request::PolicyScript script;
  script.ref = "policies";
  script_dir.scripts.push_back(script);
  EXPECT_EQ(expect_code([&] { prepare(script_dir, root); }), "R112");
}

Request fleet_request() {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 4.0;
  r.settings.trajectories = 40;
  r.settings.seed = 3;
  r.has_fleet = true;
  r.fleet.joints = 6;
  r.fleet.seed = 17;
  r.fleet.jitter = 0.12;
  r.fleet.coupling = 0.3;
  return r;
}

TEST(ServeRequest, IntegerFieldsRoundTripExactly) {
  // Counts and seeds never pass through a double: 2^53 + 1 and 2^64 - 1
  // survive the trip, so a served run uses the caller's exact seed.
  for (const std::uint64_t value :
       {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
    Request original = fleet_request();
    original.settings.seed = value;
    original.settings.trajectories = value;
    original.fleet.seed = value;
    const Request parsed = parse_request(encode_request(original));
    EXPECT_EQ(parsed.settings.seed, value);
    EXPECT_EQ(parsed.settings.trajectories, value);
    EXPECT_EQ(parsed.fleet.seed, value);
  }
}

TEST(ServeRequest, NonIntegerCountsAreR112) {
  for (const std::string value : {"1e30", "3.5", "-1", "18446744073709551616", "\"7\""}) {
    for (const std::string field : {"seed", "trajectories"}) {
      EXPECT_EQ(expect_code([&] {
                  parse_request(R"({"schema": "fmtree.request/v1",
                                    "model": {"ref": "x"}, "settings": {")" +
                                field + "\": " + value + "}}");
                }),
                "R112")
          << field << " = " << value;
    }
    for (const std::string field : {"joints", "seed"}) {
      const std::string joints = field == "joints" ? "" : "\"joints\": 2, ";
      EXPECT_EQ(expect_code([&] {
                  parse_request(R"({"schema": "fmtree.request/v1",
                                    "model": {"ref": "x"}, "fleet": {)" +
                                joints + "\"" + field + "\": " + value + "}}");
                }),
                "R112")
          << "fleet." << field << " = " << value;
    }
  }
}

TEST(ServeRequest, FleetMemberRoundTripsBitExactly) {
  const Request original = fleet_request();
  const std::string text = encode_request(original);
  const Request parsed = parse_request(text);
  ASSERT_TRUE(parsed.has_fleet);
  EXPECT_EQ(parsed.fleet.joints, 6u);
  EXPECT_EQ(parsed.fleet.seed, 17u);
  EXPECT_TRUE(parsed.fleet.jitter == original.fleet.jitter);
  EXPECT_TRUE(parsed.fleet.coupling == original.fleet.coupling);
  EXPECT_EQ(encode_request(parsed), text);
}

TEST(ServeRequest, FleetSchemaViolationsAreR112) {
  // joints is required and bounded; unknown fleet members are rejected; a
  // fleet request cannot also sweep a frequency grid.
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"}, "fleet": {}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 0}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4, "crews": 2}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4, "jitter": -0.5}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4},
                                "policy": {"frequencies": [1, 2]}})");
            }),
            "R112");
}

TEST(ServeRequest, PrepareExpandsAFleetIntoJointLabelledJobs) {
  const PreparedRequest prepared = prepare(fleet_request(), "models");
  ASSERT_EQ(prepared.jobs.size(), 6u);
  // The daemon routes through fleet::fleet_plan, so its jobs carry exactly
  // the corridor's joint names (and hence the same cache keys as an
  // in-process `fmtree fleet` run).
  EXPECT_EQ(prepared.jobs.front().label, "joint-0000");
  EXPECT_EQ(prepared.jobs.back().label, "joint-0005");
  // Jitter perturbs the lifetimes: the shards are distinct models, so they
  // hash to distinct cache keys.
  EXPECT_FALSE(fmt::canonical_hash(prepared.jobs[0].model) ==
               fmt::canonical_hash(prepared.jobs[1].model));
}

}  // namespace
}  // namespace fmtree::serve
