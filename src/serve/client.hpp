#pragma once

/// \file client.hpp
/// Synchronous client of the m3d_serve protocol: one Unix-domain-socket
/// connection, one request/response pair per call. Backs the m3d_client
/// CLI and the serve test suite. Every method is blocking and returns
/// false with \p err filled on transport or protocol ("ok": false) errors.

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace m3d::serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(const std::string& socketPath, std::string* err);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and parses the one response line. On an
  /// "ok": false response the error string is copied into \p err and
  /// false is returned, but \p resp still holds the parsed document.
  bool request(const std::string& line, obs::JsonValue* resp, std::string* err);

  // Convenience verbs.
  bool ping(std::string* err);
  bool submit(const JobSpec& spec, std::uint64_t* jobId, std::string* err);
  /// Waits until the job is terminal (timeoutMs <= 0 = forever); fills the
  /// final state. Returns false on transport errors or unknown job; a
  /// non-terminal state after a timeout is a *true* return -- inspect
  /// \p state.
  bool waitJob(std::uint64_t jobId, int timeoutMs, JobState* state, std::string* err);
  bool result(std::uint64_t jobId, JobResult* out, std::string* err);
  bool cancel(std::uint64_t jobId, std::string* err);
  bool shutdownServer(std::string* err);

  /// Submit + wait + fetch result in one call (the common CLI path).
  bool runJob(const JobSpec& spec, JobResult* out, std::string* err);

 private:
  int fd_ = -1;
  std::string rxBuf_;
};

}  // namespace m3d::serve
