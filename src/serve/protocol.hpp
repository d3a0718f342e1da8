// The "fmtree.response/v1" wire protocol of the serve daemon.
//
// Transport: one request per connection over a local SOCK_STREAM socket.
// The client writes one "fmtree.request/v1" JSON document (any formatting)
// and shuts down its write side; the server answers with newline-delimited
// JSON events (NDJSON — exactly one JSON object per line) and closes:
//
//   {"schema":"fmtree.response/v1","event":"accepted","id":...,"jobs":N}
//   {"schema":"fmtree.response/v1","event":"progress","phase":"sweep",...}
//   {"schema":"fmtree.response/v1","event":"result","jobs":[...],...}   (terminal)
//   {"schema":"fmtree.response/v1","event":"error","code":"R1xx",...}   (terminal)
//
// Result bodies reuse the hexfloat-exact "fmtree.result/v2" document
// (batch/result_cache.hpp) verbatim: each done job's "report" member is the
// cache entry encode_report writes, which is one line with no whitespace.
// Every double travels as its hexfloat, so a decoded response is
// bit-identical to the server's computation and to the standalone CLI's.
#pragma once

#include <string>

#include "obs/progress.hpp"
#include "serve/session.hpp"

namespace fmtree::serve {

/// One-line events (each includes the trailing '\n').
std::string encode_accepted(const std::string& id, std::size_t jobs);
std::string encode_progress(const obs::Progress& progress);
std::string encode_result(const Response& response);
/// `error` must carry at least one diagnostic (RequestError always does).
std::string encode_error(const RequestError& error);

/// What one protocol line decodes to.
enum class EventKind : std::uint8_t { Accepted, Progress, Result, Error };

struct Event {
  EventKind kind = EventKind::Error;
  std::string id;          ///< accepted/result
  std::size_t jobs = 0;    ///< accepted
  /// progress; `phase` is interned to one of the producers' static phase
  /// literals ("" when the wire named an unknown phase), so the view never
  /// dangles when the Event is moved.
  obs::Progress progress;
  Response response;           ///< result
  std::string error_code;      ///< error
  std::vector<Diagnostic> diagnostics;  ///< error
};

/// Decodes one event line. Throws RequestError R121 on anything that is not
/// a well-formed fmtree.response/v1 event (the transport is broken).
Event decode_event(const std::string& line);

}  // namespace fmtree::serve
