// The socket client of the serve daemon: connects, sends one
// "fmtree.request/v1" document, streams the "fmtree.response/v1" events back
// and returns the decoded Response. `fmtree sweep --connect` is a thin
// wrapper around this — the CLI renders the same Response type whether it
// ran the analysis in-process (run_sweep) or across the socket, and the
// decoded reports are bit-identical to the server's computation
// (serve/protocol.hpp explains why).
//
// Failure mapping: transport problems (connect/read/write, a connection that
// dies before a terminal event, a malformed event) throw RequestError R121;
// a server-sent error event is rethrown as the matching exception —
// AdmissionError for R120, RequestError carrying the server's code and
// diagnostics otherwise.
// A client given a stop handle checks it every 100 ms while it waits; a
// stop closes the connection (the daemon cancels the jobs only this client
// watched) and returns a Response with no jobs and the stop's reason.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "obs/progress.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "smc/run_control.hpp"

namespace fmtree::serve {

/// Optional event callbacks; leave empty to just wait for the result.
struct ClientEvents {
  std::function<void(const std::string& id, std::size_t jobs)> accepted;
  std::function<void(const obs::Progress&)> progress;
};

/// Executes `request` against the daemon at `socket_path`. Blocks until the
/// terminal event or a `stop`. Throws AdmissionError / RequestError as above.
Response request_over_socket(const std::string& socket_path, const Request& request,
                             const ClientEvents& events = {},
                             const smc::RunControl* stop = nullptr);

}  // namespace fmtree::serve
