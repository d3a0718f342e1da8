// An in-process serve::Server over a serve::Session, listening on a Unix
// socket in the benchmark's scratch directory. Clients reach it through
// serve::request_over_socket exactly as `fmtree sweep --connect` does.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <optional>
#include <thread>

#include "serve/server.hpp"
#include "serve/session.hpp"
#include "smc/run_control.hpp"

namespace e2e {

class Daemon {
public:
  Daemon(fmtree::serve::SessionConfig config, std::string socket_path)
      : session_(std::move(config)), socket_path_(std::move(socket_path)) {
    fmtree::serve::ServerConfig server_config;
    server_config.socket_path = socket_path_;
    server_config.stop = &stop_;
    server_config.poll_interval_s = 0.02;
    server_.emplace(session_, server_config);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (...) {
        error_ = std::current_exception();
        failed_.store(true, std::memory_order_release);
      }
    });
    // The socket file appears once the server has bound; only then is it
    // guaranteed to accept (listen follows bind immediately).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!std::filesystem::exists(socket_path_)) {
      if (failed_.load(std::memory_order_acquire) || std::chrono::steady_clock::now() > deadline) {
        shutdown();
        throw std::runtime_error("serve daemon did not start on " + socket_path_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // bind() creates the file and listen() follows it; a connect in between
    // would be refused.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { shutdown(); }

  fmtree::serve::Session& session() noexcept { return session_; }
  const std::string& socket_path() const noexcept { return socket_path_; }

private:
  void shutdown() {
    stop_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  fmtree::serve::Session session_;
  std::string socket_path_;
  fmtree::smc::RunControl stop_;
  std::optional<fmtree::serve::Server> server_;
  std::exception_ptr error_;  ///< read only after the thread is joined
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

}  // namespace e2e
