#include "serve/client.hpp"

#include <cerrno>
#include <cstring>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace m3d::serve {

namespace {

/// Parses "state" out of a status/wait response; false when it is absent or
/// names no state.
bool parseJobState(const obs::JsonValue& resp, JobState* state) {
  const obs::JsonValue* s = resp.find("state");
  if (s == nullptr || !s->isString()) return false;
  for (JobState cand : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                        JobState::kFailed, JobState::kCancelled}) {
    if (s->str == jobStateName(cand)) {
      *state = cand;
      return true;
    }
  }
  return false;
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
#ifdef __unix__
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
  rxBuf_.clear();
}

bool Client::connect(const std::string& socketPath, std::string* err) {
#ifndef __unix__
  (void)socketPath;
  if (err != nullptr) *err = "m3d_client requires Unix-domain sockets";
  return false;
#else
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.empty() || socketPath.size() >= sizeof addr.sun_path) {
    if (err != nullptr) *err = "bad socket path";
    return false;
  }
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err != nullptr) {
      *err = "connect " + socketPath + ": " + std::strerror(errno);
    }
    close();
    return false;
  }
  return true;
#endif
}

bool Client::request(const std::string& line, obs::JsonValue* resp, std::string* err) {
#ifndef __unix__
  (void)line;
  (void)resp;
  if (err != nullptr) *err = "m3d_client requires Unix-domain sockets";
  return false;
#else
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  const std::string payload = line + "\n";
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::send(fd_, payload.data() + off, payload.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err != nullptr) *err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }

  std::string respLine;
  for (;;) {
    const std::size_t nl = rxBuf_.find('\n');
    if (nl != std::string::npos) {
      respLine = rxBuf_.substr(0, nl);
      rxBuf_.erase(0, nl + 1);
      break;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err != nullptr) *err = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      if (err != nullptr) *err = "server closed the connection";
      return false;
    }
    rxBuf_.append(chunk, static_cast<std::size_t>(n));
  }

  std::string parseErr;
  auto doc = obs::parseJson(respLine, &parseErr);
  if (!doc.has_value()) {
    if (err != nullptr) *err = "bad response: " + parseErr;
    return false;
  }
  const obs::JsonValue* ok = doc->find("ok");
  const bool accepted = ok != nullptr && ok->type == obs::JsonValue::Type::kBool &&
                        ok->boolean;
  if (resp != nullptr) *resp = std::move(*doc);
  if (!accepted) {
    if (err != nullptr) {
      const obs::JsonValue* msg =
          resp != nullptr ? resp->find("error") : doc->find("error");
      *err = msg != nullptr && msg->isString() ? msg->str : "server rejected the request";
    }
    return false;
  }
  return true;
#endif
}

bool Client::ping(std::string* err) { return request(encodeOp("ping"), nullptr, err); }

bool Client::submit(const JobSpec& spec, std::uint64_t* jobId, std::string* err) {
  obs::JsonValue resp;
  if (!request(encodeSubmit(spec), &resp, err)) return false;
  const obs::JsonValue* id = resp.find("job_id");
  if (id == nullptr || !id->isNumber()) {
    if (err != nullptr) *err = "submit response has no job_id";
    return false;
  }
  if (jobId != nullptr) *jobId = static_cast<std::uint64_t>(id->number);
  return true;
}

bool Client::waitJob(std::uint64_t jobId, int timeoutMs, JobState* state,
                     std::string* err) {
  obs::JsonValue resp;
  if (!request(encodeWait(jobId, timeoutMs), &resp, err)) return false;
  JobState s = JobState::kQueued;
  if (!parseJobState(resp, &s)) {
    if (err != nullptr) *err = "wait response has no state";
    return false;
  }
  if (state != nullptr) *state = s;
  return true;
}

bool Client::result(std::uint64_t jobId, JobResult* out, std::string* err) {
  obs::JsonValue resp;
  if (!request(encodeJobOp("result", jobId), &resp, err)) return false;
  const obs::JsonValue* r = resp.find("result");
  if (r == nullptr) {
    if (err != nullptr) *err = "result response has no result object";
    return false;
  }
  return JobResult::fromJson(*r, out, err);
}

bool Client::cancel(std::uint64_t jobId, std::string* err) {
  return request(encodeJobOp("cancel", jobId), nullptr, err);
}

bool Client::shutdownServer(std::string* err) {
  return request(encodeOp("shutdown"), nullptr, err);
}

bool Client::runJob(const JobSpec& spec, JobResult* out, std::string* err) {
  std::uint64_t id = 0;
  if (!submit(spec, &id, err)) return false;
  JobState state = JobState::kQueued;
  if (!waitJob(id, /*timeoutMs=*/0, &state, err)) return false;
  if (state != JobState::kDone) {
    if (err != nullptr) {
      *err = "job " + std::to_string(id) + " ended " + jobStateName(state);
    }
    return false;
  }
  return result(id, out, err);
}

}  // namespace m3d::serve
