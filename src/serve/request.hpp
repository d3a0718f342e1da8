// The versioned request schema "fmtree.request/v1": the canonical
// description of *an analysis* as data, shared by every entry point — the
// `fmtree serve` daemon parses it off the socket, `fmtree sweep
// --emit-request` prints it, `serve::Session` accepts it in-process, and
// `tools/validate_schema.py request` checks documents against the published
// JSON schema (tools/request_schema.json) in CI.
//
// A request names a model (inline .fmt text or a `ref` resolved against the
// server's model root), the result-relevant analysis settings, and an
// optional maintenance-policy grid. The settings fields are exactly the
// ones that participate in the cache fingerprint (batch/fingerprint.hpp):
// execution knobs — threads, telemetry — are deliberately not
// part of the schema, because by the bitwise-determinism contract they
// cannot change a result and are the *server's* business, not the client's.
//
// Doubles are accepted both as plain JSON numbers and as C99 hexfloat
// strings ("0x1.8p+1"); encode_request() always emits hexfloats, so an
// emitted request round-trips bit-exactly and hashes to the same CacheKey
// everywhere.
//
// Stable diagnostic codes (R-range, documented in DESIGN.md):
//   R110  malformed request JSON
//   R111  missing/unsupported schema tag
//   R112  invalid field (missing model, wrong type, unknown key, bad value)
//   R113  the model inside the request failed to parse/validate
//   R114  a policy script inside the request failed to compile/bind (the
//         diagnostics carry the script's own L1xx codes and locations)
//   R120  admission control rejected the request (queue full; retry later)
//   R121  client-side transport failure (connect/read/write on the socket)
//   R122  the server failed internally while executing the request
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/sweep.hpp"
#include "fmt/fmtree.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace fmtree::serve {

/// A structured request failure: an Error carrying one or more Diagnostics
/// with a stable R1xx code, so the CLI renders it through the same
/// --json-errors channel as every other failure.
class RequestError : public Error {
public:
  /// One diagnostic with `code`, followed by `warnings`: the C101s that a
  /// refused request's admission reads produced (serve/session.hpp).
  RequestError(std::string code, const std::string& message, std::string hint = {},
               std::vector<Diagnostic> warnings = {});
  RequestError(std::string code, std::vector<Diagnostic> diagnostics);

  const std::string& code() const noexcept { return code_; }
  const std::vector<Diagnostic>& diagnostics() const noexcept { return diagnostics_; }

private:
  std::string code_;
  std::vector<Diagnostic> diagnostics_;
};

/// R120: the daemon's bounded queue is full — the 429 of this protocol.
/// Nothing of the request was enqueued; the client may retry later. The R120
/// is followed by the C101s of the request's admission reads, if any.
class AdmissionError : public RequestError {
public:
  explicit AdmissionError(const std::string& message,
                          std::vector<Diagnostic> warnings = {});
};

/// One parsed "fmtree.request/v1" document.
struct Request {
  std::string id;     ///< optional client tag, echoed in every response event
  int priority = 0;   ///< higher drains first when the queue is contended
  std::string model_text;  ///< inline .fmt source (exactly one of these two)
  std::string model_ref;   ///< model name resolved against the server root
  /// Result-relevant settings only; execution knobs keep their defaults and
  /// are overridden server-side (SessionConfig).
  smc::AnalysisSettings settings;
  /// Inspection-frequency grid (policy sweep); empty + !has_policy = a
  /// single analysis of the model as written.
  std::vector<double> frequencies;
  /// One scripted maintenance policy: inline DSL source or a `ref` resolved
  /// against the server's model root (exactly one of the two is set).
  struct PolicyScript {
    std::string text;  ///< inline script source
    std::string ref;   ///< script name under the model root
  };
  /// Scripted-policy candidates (policy.scripts); each becomes one job with
  /// the compiled policy attached, labeled by the script's policy name.
  std::vector<PolicyScript> scripts;
  bool has_policy = false;
  /// Corridor expansion (the `fleet` member): instantiate `joints` copies of
  /// the model with seeded parameter jitter and neighbour load-coupling
  /// (fleet::CorridorSpec semantics), one job per joint labeled
  /// fleet::joint_name(i). Only the result-relevant knobs appear here —
  /// render-side quantities (corridor spacing, crew capacity, worst-k) stay
  /// out of the schema for the same reason threads do. A fleet request may
  /// carry at most one policy script (applied to every joint) and no
  /// inspection-frequency grid.
  struct FleetSpec {
    std::uint32_t joints = 0;
    std::uint64_t seed = 0;
    double jitter = 0.1;
    double coupling = 0.0;
  };
  FleetSpec fleet;
  bool has_fleet = false;
};

/// Parses and validates a request document. Throws RequestError (R110/R111/
/// R112) — never anything else — on any malformed input.
Request parse_request(const std::string& text);

/// Canonical serialization: hexfloat doubles, stable member order. A parse
/// of the output yields a Request that hashes to the same cache keys.
std::string encode_request(const Request& request);

/// The request, resolved and expanded: the parsed model plus one SweepJob
/// per policy point. A frequency grid expands through
/// maintenance::frequency_jobs ("no-inspection" / "<f>x-per-year"), the one
/// builder of every inspection-frequency sweep; a script's job is labelled
/// by its policy name, and a request without a policy is one "analysis".
struct PreparedRequest {
  fmt::FaultMaintenanceTree model;
  std::vector<batch::SweepJob> jobs;
};

/// Resolves the model (R112 on a bad ref, R113 wrapping parse/validation
/// diagnostics) and expands the policy grid. `model_root` is the directory
/// `ref` names resolve in; inline models ignore it.
PreparedRequest prepare(const Request& request, const std::string& model_root);

}  // namespace fmtree::serve
