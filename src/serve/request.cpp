#include "serve/request.hpp"

#include <cmath>
#include <optional>
#include <sstream>

#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "lang/runtime.hpp"
#include "maintenance/policy.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

namespace fmtree::serve {

namespace {

constexpr const char* kSchema = "fmtree.request/v1";

Diagnostic make_diagnostic(std::string code, const std::string& message,
                           std::string hint) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.code = std::move(code);
  d.message = message;
  d.hint = std::move(hint);
  return d;
}

[[noreturn]] void invalid(const std::string& message, std::string hint = {}) {
  throw RequestError("R112", message, std::move(hint));
}

/// Schema doubles: a JSON number, or a string spelling one
/// (json::Value::as_double). Hexfloat strings are the canonical form
/// because they round-trip bit-exactly into the cache fingerprint.
double parse_number(const json::Value& v, const std::string& what) {
  try {
    return v.as_double();
  } catch (const Error& e) {
    invalid("request field '" + what + "': " + e.what(),
            "use a JSON number or a C99 hexfloat string like \"0x1.8p+1\"");
  }
}

/// Schema integers (counts and seeds): a JSON number spelled as a
/// nonnegative integer below 2^64, read exactly — never through a double.
std::uint64_t parse_count(const json::Value& v, const std::string& what) {
  try {
    return v.as_u64();
  } catch (const Error&) {
    invalid("request field '" + what + "' must be an integer in [0, 2^64)");
  }
}

void reject_unknown_members(const json::Value& object, const char* where,
                            std::initializer_list<const char*> known) {
  for (const auto& [key, value] : object.members) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok)
      invalid(std::string("unknown request field '") + where + "." + key + "'",
              "the fmtree.request/v1 schema rejects unrecognized fields");
  }
}

}  // namespace

RequestError::RequestError(std::string code, const std::string& message,
                           std::string hint, std::vector<Diagnostic> warnings)
    : Error(message), code_(std::move(code)) {
  diagnostics_.push_back(make_diagnostic(code_, message, std::move(hint)));
  for (Diagnostic& w : warnings) diagnostics_.push_back(std::move(w));
}

RequestError::RequestError(std::string code, std::vector<Diagnostic> diagnostics)
    : Error(diagnostics.empty() ? "invalid request" : diagnostics.front().message),
      code_(std::move(code)),
      diagnostics_(std::move(diagnostics)) {}

AdmissionError::AdmissionError(const std::string& message,
                               std::vector<Diagnostic> warnings)
    : RequestError("R120", message, "the daemon's job queue is full; retry after a drain",
                   std::move(warnings)) {}

Request parse_request(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const Error& e) {
    throw RequestError("R110", std::string("malformed request JSON: ") + e.what());
  }
  if (!doc.is(json::Kind::Object))
    throw RequestError("R110", "request must be a JSON object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(json::Kind::String))
    throw RequestError("R111", "request has no schema tag",
                       std::string("expected \"schema\": \"") + kSchema + "\"");
  if (schema->text != kSchema)
    throw RequestError("R111", "unsupported request schema '" + schema->text + "'",
                       std::string("this server speaks ") + kSchema);
  reject_unknown_members(
      doc, "request",
      {"schema", "id", "priority", "model", "settings", "fleet", "policy"});

  Request req;
  if (const json::Value* id = doc.find("id")) {
    if (!id->is(json::Kind::String)) invalid("request field 'id' must be a string");
    req.id = id->text;
  }
  if (const json::Value* prio = doc.find("priority")) {
    const double p = parse_number(*prio, "priority");
    if (p != std::floor(p) || p < -1000 || p > 1000)
      invalid("request field 'priority' must be an integer in [-1000, 1000]");
    req.priority = static_cast<int>(p);
  }

  const json::Value* model = doc.find("model");
  if (model == nullptr || !model->is(json::Kind::Object))
    invalid("request needs a 'model' object",
            "either {\"inline\": \"<.fmt source>\"} or {\"ref\": \"<name>\"}");
  reject_unknown_members(*model, "model", {"inline", "ref"});
  const json::Value* inline_text = model->find("inline");
  const json::Value* ref = model->find("ref");
  if ((inline_text != nullptr) == (ref != nullptr))
    invalid("request 'model' needs exactly one of 'inline' or 'ref'");
  if (inline_text != nullptr) {
    if (!inline_text->is(json::Kind::String))
      invalid("request field 'model.inline' must be a string of .fmt source");
    req.model_text = inline_text->text;
  } else {
    if (!ref->is(json::Kind::String) || ref->text.empty())
      invalid("request field 'model.ref' must be a nonempty string");
    req.model_ref = ref->text;
  }

  if (const json::Value* settings = doc.find("settings")) {
    if (!settings->is(json::Kind::Object))
      invalid("request field 'settings' must be an object");
    if (settings->find("engine") != nullptr)
      invalid("request field 'settings.engine' was removed",
              "fmtree has a single trajectory engine; drop 'settings.engine' "
              "from the request");
    reject_unknown_members(*settings, "settings",
                           {"horizon", "trajectories", "seed", "confidence",
                            "discount_rate", "target_relative_error"});
    if (const json::Value* v = settings->find("horizon"))
      req.settings.horizon = parse_number(*v, "settings.horizon");
    if (const json::Value* v = settings->find("trajectories"))
      req.settings.trajectories = parse_count(*v, "settings.trajectories");
    if (const json::Value* v = settings->find("seed"))
      req.settings.seed = parse_count(*v, "settings.seed");
    if (const json::Value* v = settings->find("confidence"))
      req.settings.confidence = parse_number(*v, "settings.confidence");
    if (const json::Value* v = settings->find("discount_rate"))
      req.settings.discount_rate = parse_number(*v, "settings.discount_rate");
    if (const json::Value* v = settings->find("target_relative_error"))
      req.settings.target_relative_error =
          parse_number(*v, "settings.target_relative_error");
  }
  if (!(req.settings.horizon > 0)) invalid("settings.horizon must be positive");
  if (req.settings.trajectories == 0)
    invalid("settings.trajectories must be positive");
  if (!(req.settings.confidence > 0 && req.settings.confidence < 1))
    invalid("settings.confidence must lie in (0,1)");

  if (const json::Value* fleet = doc.find("fleet")) {
    if (!fleet->is(json::Kind::Object))
      invalid("request field 'fleet' must be an object");
    reject_unknown_members(*fleet, "fleet",
                           {"joints", "seed", "jitter", "coupling"});
    const json::Value* joints = fleet->find("joints");
    if (joints == nullptr)
      invalid("request field 'fleet' needs 'joints'");
    const std::uint64_t n = parse_count(*joints, "fleet.joints");
    if (n < 1 || n > 100000)
      invalid("request field 'fleet.joints' must lie in [1, 100000]");
    req.fleet.joints = static_cast<std::uint32_t>(n);
    if (const json::Value* v = fleet->find("seed"))
      req.fleet.seed = parse_count(*v, "fleet.seed");
    if (const json::Value* v = fleet->find("jitter")) {
      req.fleet.jitter = parse_number(*v, "fleet.jitter");
      if (!(req.fleet.jitter >= 0) || !std::isfinite(req.fleet.jitter))
        invalid("request field 'fleet.jitter' must be finite and >= 0");
    }
    if (const json::Value* v = fleet->find("coupling")) {
      req.fleet.coupling = parse_number(*v, "fleet.coupling");
      if (!(req.fleet.coupling >= 0) || !std::isfinite(req.fleet.coupling))
        invalid("request field 'fleet.coupling' must be finite and >= 0");
    }
    req.has_fleet = true;
  }

  if (const json::Value* policy = doc.find("policy")) {
    if (!policy->is(json::Kind::Object))
      invalid("request field 'policy' must be an object");
    reject_unknown_members(*policy, "policy", {"frequencies", "scripts"});
    const json::Value* freqs = policy->find("frequencies");
    const json::Value* scripts = policy->find("scripts");
    if (freqs == nullptr && scripts == nullptr)
      invalid("request field 'policy' needs 'frequencies' and/or 'scripts'");
    if (freqs != nullptr) {
      if (!freqs->is(json::Kind::Array) || freqs->items.empty())
        invalid("request field 'policy.frequencies' must be a nonempty array");
      for (const json::Value& item : freqs->items) {
        const double f = parse_number(item, "policy.frequencies[]");
        if (!(f >= 0) || !std::isfinite(f))
          invalid("policy frequencies must be finite and >= 0");
        req.frequencies.push_back(f);
      }
    }
    if (scripts != nullptr) {
      if (!scripts->is(json::Kind::Array) || scripts->items.empty())
        invalid("request field 'policy.scripts' must be a nonempty array");
      for (const json::Value& item : scripts->items) {
        if (!item.is(json::Kind::Object))
          invalid("request field 'policy.scripts[]' must be an object",
                  "either {\"inline\": \"<script>\"} or {\"ref\": \"<name>\"}");
        reject_unknown_members(item, "policy.scripts[]", {"inline", "ref"});
        const json::Value* inline_src = item.find("inline");
        const json::Value* script_ref = item.find("ref");
        if ((inline_src != nullptr) == (script_ref != nullptr))
          invalid(
              "request 'policy.scripts[]' needs exactly one of 'inline' or "
              "'ref'");
        Request::PolicyScript script;
        if (inline_src != nullptr) {
          if (!inline_src->is(json::Kind::String) || inline_src->text.empty())
            invalid(
                "request field 'policy.scripts[].inline' must be a nonempty "
                "string of policy source");
          script.text = inline_src->text;
        } else {
          if (!script_ref->is(json::Kind::String) || script_ref->text.empty())
            invalid(
                "request field 'policy.scripts[].ref' must be a nonempty "
                "string");
          script.ref = script_ref->text;
        }
        req.scripts.push_back(std::move(script));
      }
    }
    req.has_policy = true;
  }
  if (req.has_fleet && !req.frequencies.empty())
    invalid("a fleet request cannot also sweep 'policy.frequencies'",
            "bake the inspection schedule into the model (or use one policy "
            "script); every joint runs the same policy");
  if (req.has_fleet && req.scripts.size() > 1)
    invalid("a fleet request accepts at most one policy script",
            "the script is applied to every joint of the corridor");
  return req;
}

std::string encode_request(const Request& request) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kSchema << "\",\n";
  if (!request.id.empty())
    os << "  \"id\": \"" << json::escape(request.id) << "\",\n";
  if (request.priority != 0) os << "  \"priority\": " << request.priority << ",\n";
  os << "  \"model\": {";
  if (!request.model_ref.empty()) {
    os << "\"ref\": \"" << json::escape(request.model_ref) << "\"";
  } else {
    os << "\"inline\": \"" << json::escape(request.model_text) << "\"";
  }
  os << "},\n"
     << "  \"settings\": {\n"
     << "    \"horizon\": \"" << json::hexfloat(request.settings.horizon) << "\",\n"
     << "    \"trajectories\": " << request.settings.trajectories << ",\n"
     << "    \"seed\": " << request.settings.seed << ",\n"
     << "    \"confidence\": \"" << json::hexfloat(request.settings.confidence) << "\",\n"
     << "    \"discount_rate\": \"" << json::hexfloat(request.settings.discount_rate)
     << "\",\n"
     << "    \"target_relative_error\": \""
     << json::hexfloat(request.settings.target_relative_error) << "\"\n"
     << "  }";
  if (request.has_fleet) {
    os << ",\n  \"fleet\": {\"joints\": " << request.fleet.joints
       << ", \"seed\": " << request.fleet.seed << ", \"jitter\": \""
       << json::hexfloat(request.fleet.jitter) << "\", \"coupling\": \""
       << json::hexfloat(request.fleet.coupling) << "\"}";
  }
  if (request.has_policy) {
    os << ",\n  \"policy\": {";
    bool first_member = true;
    if (!request.frequencies.empty()) {
      os << "\"frequencies\": [";
      for (std::size_t i = 0; i < request.frequencies.size(); ++i)
        os << (i == 0 ? "\"" : ", \"") << json::hexfloat(request.frequencies[i]) << "\"";
      os << "]";
      first_member = false;
    }
    if (!request.scripts.empty()) {
      os << (first_member ? "" : ", ") << "\"scripts\": [";
      for (std::size_t i = 0; i < request.scripts.size(); ++i) {
        const Request::PolicyScript& s = request.scripts[i];
        os << (i == 0 ? "" : ", ");
        if (!s.ref.empty()) {
          os << "{\"ref\": \"" << json::escape(s.ref) << "\"}";
        } else {
          os << "{\"inline\": \"" << json::escape(s.text) << "\"}";
        }
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

namespace {

/// The text a request ref names: a plain file name under `model_root`. R112
/// for a ref that leaves the root or a file that cannot be read.
std::string read_ref(const std::string& ref, const std::string& model_root,
                     const std::string& what) {
  if (ref.find("..") != std::string::npos || ref.front() == '/')
    throw RequestError("R112",
                       what + " '" + ref + "' must be a plain name inside the model root",
                       "absolute paths and '..' segments are rejected");
  try {
    return read_text_file(model_root + "/" + ref);
  } catch (const IoError&) {
    throw RequestError("R112", what + " '" + ref + "' is not a readable file under '" +
                                   model_root + "'");
  }
}

/// Resolves (R112 on a bad ref), compiles (R114 with the compiler's own L1xx
/// diagnostics) and eagerly binds one policy script against the request's
/// model, so a script naming missing components is rejected at admission,
/// not at execution.
std::shared_ptr<const lang::CompiledPolicy> compile_script(
    const Request::PolicyScript& script, const std::string& model_root,
    const fmt::FaultMaintenanceTree& model) {
  const std::string source = script.ref.empty()
                                 ? script.text
                                 : read_ref(script.ref, model_root, "policy script ref");
  Diagnostics diags;
  std::optional<lang::CompiledPolicy> compiled = lang::compile_policy(source, diags);
  if (!compiled) throw RequestError("R114", diags.all());
  try {
    (void)lang::bind_policy(*compiled, lang::apply_policy(*compiled, model));
  } catch (const ModelErrors& e) {
    throw RequestError("R114", e.diagnostics());
  }
  return std::make_shared<const lang::CompiledPolicy>(*std::move(compiled));
}

}  // namespace

PreparedRequest prepare(const Request& request, const std::string& model_root) {
  const std::string text = request.model_ref.empty()
                               ? request.model_text
                               : read_ref(request.model_ref, model_root, "model ref");

  PreparedRequest prepared;
  try {
    prepared.model = fmt::parse_fmt(text);
  } catch (const ParseErrors& e) {
    throw RequestError("R113", e.diagnostics());
  } catch (const ModelErrors& e) {
    throw RequestError("R113", e.diagnostics());
  } catch (const ParseError& e) {
    throw RequestError("R113", {diagnostic_from(e)});
  } catch (const ModelError& e) {
    throw RequestError("R113", {diagnostic_from(e, "M104")});
  }

  // Corridor expansion: the jobs are built by the same fleet::fleet_plan the
  // in-process path uses, so a served corridor describes — and cache-hits —
  // exactly the jobs a local run of the same spec would.
  if (request.has_fleet) {
    fleet::CorridorSpec spec;
    spec.joints = request.fleet.joints;
    spec.seed = request.fleet.seed;
    spec.jitter = request.fleet.jitter;
    spec.coupling = request.fleet.coupling;
    fleet::FleetOptions options;
    options.settings = request.settings;
    if (!request.scripts.empty())
      options.settings.policy =
          compile_script(request.scripts.front(), model_root, prepared.model);
    try {
      const fleet::Corridor corridor =
          fleet::generate_corridor(prepared.model, spec);
      prepared.jobs = std::move(fleet::fleet_plan(corridor, options).jobs);
    } catch (const DomainError& e) {
      throw RequestError("R112", std::string("invalid fleet spec: ") + e.what());
    }
    return prepared;
  }

  if (!request.has_policy) {
    batch::SweepJob job;
    job.label = "analysis";
    job.model = prepared.model;
    job.settings = request.settings;
    prepared.jobs.push_back(std::move(job));
    return prepared;
  }

  // A DomainError is an invalid field: parse_request admits only finite
  // frequencies >= 0, so it names a model without inspection modules.
  if (!request.frequencies.empty()) {
    try {
      prepared.jobs = maintenance::frequency_jobs(prepared.model, request.frequencies,
                                                  request.settings);
    } catch (const DomainError& e) {
      throw RequestError("R112", {diagnostic_from(e, "R112")});
    }
  }

  // Scripted candidates: compile each script (R114 carries the compiler's
  // own L1xx diagnostics) and attach the compiled policy to the job's
  // settings; the analysis layer transforms the model at execution time. Script
  // refs resolve under the same model root — and the same path discipline —
  // as model refs.
  for (const Request::PolicyScript& script : request.scripts) {
    std::shared_ptr<const lang::CompiledPolicy> policy =
        compile_script(script, model_root, prepared.model);
    batch::SweepJob job;
    job.label = policy->name;
    job.model = prepared.model;
    job.settings = request.settings;
    job.settings.policy = std::move(policy);
    prepared.jobs.push_back(std::move(job));
  }
  return prepared;
}

}  // namespace fmtree::serve
