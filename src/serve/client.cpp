#include "serve/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/protocol.hpp"

namespace fmtree::serve {

namespace {

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

[[noreturn]] void transport_error(const std::string& what) {
  throw RequestError("R121", what, "is the daemon running? start it with "
                                   "`fmtree serve <socket>`");
}

void write_all(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      transport_error(std::string("failed to send request: ") +
                      std::strerror(errno));
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

[[noreturn]] void rethrow_server_error(const Event& event) {
  if (event.error_code == "R120") {
    // Reconstruct the admission rejection, with the C101s that follow its
    // R120, so callers can catch the specific type and retry later.
    if (event.diagnostics.empty()) throw AdmissionError("request rejected");
    throw AdmissionError(event.diagnostics[0].message,
                         {event.diagnostics.begin() + 1, event.diagnostics.end()});
  }
  throw RequestError(event.error_code, event.diagnostics);
}

}  // namespace

Response request_over_socket(const std::string& socket_path, const Request& request,
                             const ClientEvents& events, const smc::RunControl* stop) {
  FdCloser sock{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (sock.fd < 0)
    transport_error(std::string("cannot create socket: ") + std::strerror(errno));

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
    transport_error("socket path must be 1.." +
                    std::to_string(sizeof(addr.sun_path) - 1) + " characters: '" +
                    socket_path + "'");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    transport_error("cannot connect to '" + socket_path +
                    "': " + std::strerror(errno));

  write_all(sock.fd, encode_request(request));
  // EOF on our write side is the request frame boundary.
  if (::shutdown(sock.fd, SHUT_WR) < 0)
    transport_error(std::string("cannot shut down write side: ") +
                    std::strerror(errno));

  std::string buffer;
  char chunk[4096];
  for (;;) {
    while (stop != nullptr) {  // wait in steps of 100 ms, checking the stop
      Response stopped;
      stopped.stop_reason = stop->should_stop(0);
      if (stopped.stop_reason != smc::StopReason::None) return stopped;
      pollfd pfd{sock.fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (ready > 0 || (ready < 0 && errno != EINTR)) break;  // recv reports errors
    }
    const ssize_t r = ::recv(sock.fd, chunk, sizeof chunk, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      transport_error(std::string("failed to read response: ") +
                      std::strerror(errno));
    }
    if (r == 0) {
      transport_error("connection closed before a terminal result/error event" +
                      (buffer.empty() ? std::string()
                                      : " (partial event of " +
                                            std::to_string(buffer.size()) +
                                            " bytes discarded)"));
    }
    buffer.append(chunk, static_cast<std::size_t>(r));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         start = nl + 1, nl = buffer.find('\n', start)) {
      Event event = decode_event(buffer.substr(start, nl - start));
      switch (event.kind) {
        case EventKind::Accepted:
          if (events.accepted) events.accepted(event.id, event.jobs);
          break;
        case EventKind::Progress:
          if (events.progress) events.progress(event.progress);
          break;
        case EventKind::Result: return std::move(event.response);
        case EventKind::Error: rethrow_server_error(event);
      }
    }
    buffer.erase(0, start);
  }
}

}  // namespace fmtree::serve
