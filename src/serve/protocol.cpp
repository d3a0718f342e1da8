#include "serve/protocol.hpp"

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

/// An optional string member, `fallback` when absent.
std::string get_string_or(const json::Value& obj, const char* key,
                          std::string fallback = {}) {
  const json::Value* v = obj.find(key);
  return v == nullptr ? fallback : v->as_string();
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
  Diagnostic d;
  d.severity = severity_from_name(obj.at("severity").as_string());
  d.code = obj.at("code").as_string();
  d.loc.line = obj.at("line").as_u64();
  d.loc.column = obj.at("column").as_u64();
  d.message = obj.at("message").as_string();
  d.hint = get_string_or(obj, "hint");
  d.token = get_string_or(obj, "token");
  return d;
}

std::vector<Diagnostic> decode_diagnostics(const json::Value& arr, const char* where) {
  if (!arr.is(json::Kind::Array))
    bad_wire(std::string("member '") + where + "' must be an array");
  std::vector<Diagnostic> out;
  out.reserve(arr.items.size());
  for (const json::Value& item : arr.items) out.push_back(decode_diagnostic(item));
  return out;
}

batch::JobResult decode_job(const json::Value& obj) {
  batch::JobResult out;
  out.label = obj.at("label").as_string();
  const json::Value& key = obj.at("key");
  out.key.model = Fingerprint::from_hex(key.at("model").as_string());
  out.key.request = Fingerprint::from_hex(key.at("request").as_string());
  const batch::JobState state = job_state_from_name(obj.at("status").as_string());
  out.completed = state == batch::JobState::Done;
  out.failed = state == batch::JobState::Failed;
  out.cancelled = state == batch::JobState::Cancelled;
  out.cache_hit = get_string_or(obj, "source", "simulated") == "cache";
  out.retries = static_cast<std::uint32_t>(obj.at("retries").as_u64());
  if (out.failed) {
    const json::Value& failure = obj.at("failure");
    out.failure.kind = failure.at("kind").as_string();
    out.failure.message = failure.at("message").as_string();
    const json::Value& transient = failure.at("transient");
    if (!transient.is(json::Kind::Bool)) bad_wire("'transient' must be a bool");
    out.failure.transient = transient.boolean;
    out.failure.attempts = static_cast<std::uint32_t>(failure.at("attempts").as_u64());
  }
  // The embedded report is the "fmtree.result/v2" cache entry verbatim;
  // decode_report's content-hash check guards end-to-end integrity.
  if (out.completed) out.report = batch::decode_report(out.key, obj.at("report"));
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
      os << ",\"report\":" << batch::encode_report(job.key, job.report);
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
  if (get_string_or(doc, "schema") != kSchema)
    bad_wire("missing or unsupported schema tag (want fmtree.response/v1)");
  const std::string event = doc.at("event").as_string();
  Event out;
  if (event == "accepted") {
    out.kind = EventKind::Accepted;
    out.id = get_string_or(doc, "id");
    out.jobs = doc.at("jobs").as_u64();
  } else if (event == "progress") {
    out.kind = EventKind::Progress;
    const std::string phase = doc.at("phase").as_string();
    for (const std::string_view known : kPhases)
      if (phase == known) out.progress.phase = known;
    out.progress.done = doc.at("done").as_u64();
    out.progress.total = doc.at("total").as_u64();
    out.progress.rate = doc.at("rate").as_double();
    out.progress.eta_seconds = doc.at("eta_seconds").as_double();
    out.progress.ci_half_width = doc.at("ci_half_width").as_double();
    out.progress.ci_target = doc.at("ci_target").as_double();
  } else if (event == "result") {
    out.kind = EventKind::Result;
    out.id = get_string_or(doc, "id");
    out.response.id = out.id;
    out.response.stop_reason =
        smc::stop_reason_from_name(get_string_or(doc, "stop_reason", "none"));
    out.response.warnings = decode_diagnostics(doc.at("warnings"), "warnings");
    const json::Value& jobs = doc.at("jobs");
    if (!jobs.is(json::Kind::Array)) bad_wire("member 'jobs' must be an array");
    out.response.jobs.reserve(jobs.items.size());
    for (const json::Value& job : jobs.items)
      out.response.jobs.push_back(decode_job(job));
  } else if (event == "error") {
    out.kind = EventKind::Error;
    out.error_code = doc.at("code").as_string();
    out.diagnostics = decode_diagnostics(doc.at("diagnostics"), "diagnostics");
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

}  // namespace fmtree::serve
