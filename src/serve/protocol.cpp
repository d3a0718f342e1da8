#include "serve/protocol.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "batch/result_cache.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace fmtree::serve {

namespace {

constexpr std::string_view kSchema = "fmtree.response/v1";

/// The phase literals progress producers use (obs/progress.hpp). Decoded
/// phases are interned to these so Event::progress.phase never dangles.
constexpr std::string_view kPhases[] = {"sweep", "simulate", "solve"};

[[noreturn]] void bad_wire(const std::string& what) {
  throw RequestError("R121", "malformed response event: " + what,
                     "client and server disagree on fmtree.response/v1; check "
                     "that both run compatible fmtree versions");
}

std::string diagnostics_json(const std::vector<Diagnostic>& items) {
  Diagnostics sink;
  for (const Diagnostic& d : items) sink.add(d);
  return sink.to_json();
}

const json::Value& member(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) bad_wire(std::string("missing member '") + key + "'");
  return *v;
}

std::string get_string(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a string");
  return v.text;
}

std::string get_string_or(const json::Value& obj, const char* key,
                          std::string fallback = {}) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a string");
  return v->text;
}

std::uint64_t get_u64(const json::Value& obj, const char* key) {
  return member(obj, key).as_u64();
}

/// Doubles travel as hexfloat strings (exact) but plain numbers are accepted
/// too, mirroring the request schema's tolerance.
double get_double(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (v.is(json::Kind::Number)) return v.as_double();
  if (!v.is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a number");
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v.text.c_str(), &end);
  if (end == v.text.c_str() || *end != '\0')
    bad_wire(std::string("member '") + key + "' is not a number: '" + v.text + "'");
  return d;
}

Severity severity_from_name(const std::string& name) {
  if (name == "note") return Severity::Note;
  if (name == "warning") return Severity::Warning;
  if (name == "error") return Severity::Error;
  bad_wire("unknown diagnostic severity '" + name + "'");
}

batch::JobState job_state_from_name(const std::string& name) {
  using batch::JobState;
  for (const JobState s : {JobState::Done, JobState::Failed, JobState::Cancelled,
                           JobState::Interrupted})
    if (name == batch::job_state_name(s)) return s;
  bad_wire("unknown job status '" + name + "'");
}

Diagnostic decode_diagnostic(const json::Value& obj) {
  if (!obj.is(json::Kind::Object)) bad_wire("diagnostic must be an object");
  Diagnostic d;
  d.severity = severity_from_name(get_string(obj, "severity"));
  d.code = get_string(obj, "code");
  d.loc.line = get_u64(obj, "line");
  d.loc.column = get_u64(obj, "column");
  d.message = get_string(obj, "message");
  d.hint = get_string_or(obj, "hint");
  d.token = get_string_or(obj, "token");
  return d;
}

std::vector<Diagnostic> decode_diagnostics(const json::Value& arr,
                                           const char* where) {
  if (!arr.is(json::Kind::Array))
    bad_wire(std::string("member '") + where + "' must be an array");
  std::vector<Diagnostic> out;
  out.reserve(arr.items.size());
  for (const json::Value& item : arr.items) out.push_back(decode_diagnostic(item));
  return out;
}

batch::JobResult decode_job(const json::Value& obj) {
  if (!obj.is(json::Kind::Object)) bad_wire("result job must be an object");
  batch::JobResult out;
  out.label = get_string(obj, "label");
  const json::Value& key = member(obj, "key");
  if (!key.is(json::Kind::Object)) bad_wire("job 'key' must be an object");
  out.key.model = Fingerprint::from_hex(get_string(key, "model"));
  out.key.request = Fingerprint::from_hex(get_string(key, "request"));
  const batch::JobState state = job_state_from_name(get_string(obj, "status"));
  out.completed = state == batch::JobState::Done;
  out.failed = state == batch::JobState::Failed;
  out.cancelled = state == batch::JobState::Cancelled;
  out.cache_hit = get_string_or(obj, "source", "simulated") == "cache";
  out.retries = static_cast<std::uint32_t>(get_u64(obj, "retries"));
  if (out.failed) {
    const json::Value& failure = member(obj, "failure");
    if (!failure.is(json::Kind::Object)) bad_wire("job 'failure' must be an object");
    out.failure.kind = get_string(failure, "kind");
    out.failure.message = get_string(failure, "message");
    const json::Value& transient = member(failure, "transient");
    if (!transient.is(json::Kind::Bool)) bad_wire("'transient' must be a bool");
    out.failure.transient = transient.boolean;
    out.failure.attempts = static_cast<std::uint32_t>(get_u64(failure, "attempts"));
  }
  if (out.completed) {
    // The embedded report is the verbatim (compacted) "fmtree.result/v2"
    // document, decoded from its parsed subtree; decode_report's content-hash
    // check guards end-to-end integrity.
    out.report = batch::decode_report(out.key, member(obj, "report"));
  }
  return out;
}

}  // namespace

std::string encode_accepted(const std::string& id, std::size_t jobs) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"event\":\"accepted\",\"id\":\""
     << json::escape(id) << "\",\"jobs\":" << jobs << "}\n";
  return os.str();
}

std::string encode_progress(const obs::Progress& progress) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"event\":\"progress\",\"phase\":\""
     << json::escape(progress.phase) << "\",\"done\":" << progress.done
     << ",\"total\":" << progress.total << ",\"rate\":\"" << json::hexfloat(progress.rate)
     << "\",\"eta_seconds\":\"" << json::hexfloat(progress.eta_seconds)
     << "\",\"ci_half_width\":\"" << json::hexfloat(progress.ci_half_width)
     << "\",\"ci_target\":\"" << json::hexfloat(progress.ci_target) << "\"}\n";
  return os.str();
}

std::string encode_result(const Response& response) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"event\":\"result\",\"id\":\""
     << json::escape(response.id) << "\",\"stop_reason\":\""
     << smc::stop_reason_name(response.stop_reason)
     << "\",\"warnings\":" << diagnostics_json(response.warnings) << ",\"jobs\":[";
  for (std::size_t i = 0; i < response.jobs.size(); ++i) {
    const batch::JobResult& job = response.jobs[i];
    if (i != 0) os << ',';
    os << "{\"label\":\"" << json::escape(job.label) << "\",\"key\":{\"model\":\""
       << job.key.model.hex() << "\",\"request\":\"" << job.key.request.hex()
       << "\"},\"status\":\"" << batch::job_state_name(job.state())
       << "\",\"source\":\"" << (job.cache_hit ? "cache" : "simulated")
       << "\",\"retries\":" << job.retries;
    if (job.failed) {
      os << ",\"failure\":{\"kind\":\"" << json::escape(job.failure.kind)
         << "\",\"message\":\"" << json::escape(job.failure.message)
         << "\",\"transient\":" << (job.failure.transient ? "true" : "false")
         << ",\"attempts\":" << job.failure.attempts << '}';
    }
    if (job.completed)
      os << ",\"report\":" << compact_json(batch::encode_report(job.key, job.report));
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string encode_error(const RequestError& error) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"event\":\"error\",\"code\":\""
     << json::escape(error.code()) << "\",\"message\":\"" << json::escape(error.what())
     << "\",\"diagnostics\":" << diagnostics_json(error.diagnostics()) << "}\n";
  return os.str();
}

Event decode_event(const std::string& line) try {
  const json::Value doc = json::parse(line);
  if (!doc.is(json::Kind::Object)) bad_wire("event is not a JSON object");
  if (get_string_or(doc, "schema") != kSchema)
    bad_wire("missing or unsupported schema tag (want fmtree.response/v1)");
  const std::string event = get_string(doc, "event");
  Event out;
  if (event == "accepted") {
    out.kind = EventKind::Accepted;
    out.id = get_string_or(doc, "id");
    out.jobs = get_u64(doc, "jobs");
  } else if (event == "progress") {
    out.kind = EventKind::Progress;
    const std::string phase = get_string(doc, "phase");
    for (const std::string_view known : kPhases)
      if (phase == known) out.progress.phase = known;
    out.progress.done = get_u64(doc, "done");
    out.progress.total = get_u64(doc, "total");
    out.progress.rate = get_double(doc, "rate");
    out.progress.eta_seconds = get_double(doc, "eta_seconds");
    out.progress.ci_half_width = get_double(doc, "ci_half_width");
    out.progress.ci_target = get_double(doc, "ci_target");
  } else if (event == "result") {
    out.kind = EventKind::Result;
    out.id = get_string_or(doc, "id");
    out.response.id = out.id;
    out.response.stop_reason =
        smc::stop_reason_from_name(get_string_or(doc, "stop_reason", "none"));
    out.response.warnings = decode_diagnostics(member(doc, "warnings"), "warnings");
    const json::Value& jobs = member(doc, "jobs");
    if (!jobs.is(json::Kind::Array)) bad_wire("member 'jobs' must be an array");
    out.response.jobs.reserve(jobs.items.size());
    for (const json::Value& job : jobs.items)
      out.response.jobs.push_back(decode_job(job));
  } else if (event == "error") {
    out.kind = EventKind::Error;
    out.error_code = get_string(doc, "code");
    out.diagnostics = decode_diagnostics(member(doc, "diagnostics"), "diagnostics");
    if (out.diagnostics.empty()) {
      Diagnostic d;
      d.code = out.error_code;
      d.message = get_string_or(doc, "message", "server reported an error");
      out.diagnostics.push_back(std::move(d));
    }
  } else {
    bad_wire("unknown event '" + event + "'");
  }
  return out;
} catch (const RequestError&) {
  throw;
} catch (const Error& e) {
  bad_wire(e.what());
}

std::string compact_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      out.push_back(c);
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    out.push_back(c);
    if (c == '"') in_string = true;
  }
  return out;
}

}  // namespace fmtree::serve
