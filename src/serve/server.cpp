#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "io/fsutil.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

#ifdef __unix__
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace m3d::serve {

namespace {

/// Returns the heap memory that finished jobs freed to the system. glibc
/// keeps freed blocks in per-thread arenas and raises its trim threshold to
/// twice the largest mmapped block freed (a checkpoint buffer, several MB),
/// so without this a small-tile ECO stream peaked at 65 MB resident while
/// 12-20 MB of it was in use.
void releaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

#ifdef __unix__

/// True when a server accepts connections at \p addr (a connect probe).
bool socketAnswers(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const bool live = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return live;
}

/// Sends the whole buffer (handling short writes); false on error.
bool sendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Longest request line accepted. Job specs are well under 1 KB; the cap
/// keeps a peer that never sends '\n' from growing the daemon without bound.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

enum class RecvStatus { kLine, kClosed, kTooLong };

/// Extracts the next '\n'-terminated line from \p buf, reading more from
/// \p fd as needed. kClosed on EOF/error with no complete line left;
/// kTooLong once the pending line exceeds kMaxRequestLineBytes.
RecvStatus recvLine(int fd, std::string& buf, std::string* line) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos && nl <= kMaxRequestLineBytes) {
      *line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return RecvStatus::kLine;
    }
    if (buf.size() > kMaxRequestLineBytes) return RecvStatus::kTooLong;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kClosed;
    }
    if (n == 0) return RecvStatus::kClosed;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

#endif  // __unix__

void writeJobStatus(obs::JsonWriter& w, const Job& job) {
  w.kv("job_id", static_cast<std::int64_t>(job.id));
  w.kv("state", jobStateName(job.state));
  w.kv("kind", jobKindName(job.spec.kind));
  w.kv("flow", std::string_view(job.spec.flow));
  w.kv("tile", std::string_view(job.spec.tile));
  w.kv("label", std::string_view(job.spec.label));
  w.kv("coalesced", job.coalesced);
  if (!job.error.empty()) w.kv("error", std::string_view(job.error));
}

std::string okLine(const std::function<void(obs::JsonWriter&)>& body) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  w.beginObject();
  w.kv("ok", true);
  body(w);
  w.endObject();
  return os.str();
}

}  // namespace

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  runner_.cacheDir = opt_.cacheDir;
  runner_.cacheMaxBytes = opt_.cacheMaxBytes;
  runner_.defaultThreads = opt_.jobThreads > 0 ? opt_.jobThreads : 1;
  if (opt_.executors < 1) opt_.executors = 1;
}

Server::~Server() {
  if (started_) {
    requestShutdown();
    wait();
  }
}

bool Server::start(std::string* err) {
#ifndef __unix__
  if (err != nullptr) *err = "m3d_serve requires Unix-domain sockets";
  return false;
#else
  if (opt_.socketPath.empty()) {
    if (err != nullptr) *err = "no socket path configured";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socketPath.size() >= sizeof addr.sun_path) {
    if (err != nullptr) {
      *err = "socket path too long (" + std::to_string(opt_.socketPath.size()) +
             " bytes, max " + std::to_string(sizeof addr.sun_path - 1) + ")";
    }
    return false;
  }
  std::memcpy(addr.sun_path, opt_.socketPath.c_str(), opt_.socketPath.size() + 1);

  // A stale socket file from a crashed daemon would make bind fail; remove
  // it only when nothing answers there (never steal a live server's socket).
  if (socketAnswers(addr)) {
    if (err != nullptr) *err = "socket " + opt_.socketPath + " is in use by a running server";
    return false;
  }
  ::unlink(opt_.socketPath.c_str());
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    if (err != nullptr) *err = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }

  if (!opt_.tracePath.empty()) {
    auto& trace = obs::TraceCollector::global();
    if (trace.enable(opt_.tracePath)) {
      trace.setExternallyManaged(true);
    } else {
      M3D_LOG(warn) << "m3d_serve: cannot open trace path " << opt_.tracePath
                    << "; tracing disabled";
    }
  }
  run_.emplace("m3d_serve", opt_.socketPath);

  acceptThread_ = std::thread([this] { acceptLoop(); });
  executorThreads_.reserve(static_cast<std::size_t>(opt_.executors));
  for (int i = 0; i < opt_.executors; ++i) {
    executorThreads_.emplace_back([this] { executorLoop(); });
  }
  started_ = true;
  M3D_LOG(info) << "m3d_serve: listening on " << opt_.socketPath << " ("
                << opt_.executors << " executors, cache "
                << (opt_.cacheDir.empty() ? std::string("off") : opt_.cacheDir) << ")";
  return true;
#endif
}

void Server::requestShutdown() {
  {
    // The lock pairs with wait()'s predicate check, so a shutdown racing
    // with wait() entering its sleep can never lose the wakeup.
    std::lock_guard<std::mutex> lock(stopMu_);
    bool expected = false;
    if (!stop_.compare_exchange_strong(expected, true)) return;
  }
  queue_.close();
#ifdef __unix__
  // Unblock connection threads stuck in recv; the accept loop notices
  // stop_ via its poll timeout.
  std::lock_guard<std::mutex> lock(connMu_);
  for (int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
#endif
  stopCv_.notify_all();
}

int Server::wait() {
#ifndef __unix__
  return 0;
#else
  if (!started_) return 0;
  {
    std::unique_lock<std::mutex> lock(stopMu_);
    stopCv_.wait(lock, [this] { return stop_.load(); });
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  for (std::thread& t : executorThreads_) {
    if (t.joinable()) t.join();
  }
  executorThreads_.clear();
  {
    // Connection threads exit once their peers disconnect (their sockets
    // were shut down by requestShutdown).
    std::vector<std::thread> conns;
    {
      std::lock_guard<std::mutex> lock(connMu_);
      conns.swap(connThreads_);
    }
    for (std::thread& t : conns) {
      if (t.joinable()) t.join();
    }
    std::lock_guard<std::mutex> lock(connMu_);
    finishedConns_.clear();
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  ::unlink(opt_.socketPath.c_str());
  started_ = false;

  const QueueStats qs = queue_.stats();
  if (run_.has_value()) {
    run_->final("jobs_submitted", static_cast<double>(qs.submitted));
    run_->final("jobs_done", static_cast<double>(qs.done));
    run_->final("jobs_failed", static_cast<double>(qs.failed));
    run_->final("jobs_cancelled", static_cast<double>(qs.cancelled));
    run_->final("jobs_coalesced", static_cast<double>(qs.coalesced));
    run_->final("coalesced_prefix_stages",
                static_cast<double>(coalescedPrefixStages_.load()));
    const obs::RunReport report = run_->finish();
    run_.reset();
    if (!opt_.reportPath.empty()) {
      std::string err;
      if (!report.writeJsonFile(opt_.reportPath, &err)) {
        M3D_LOG(warn) << "m3d_serve: cannot write run report: " << err;
      } else {
        M3D_LOG(info) << "m3d_serve: run report written: " << opt_.reportPath;
      }
    }
  }
  auto& trace = obs::TraceCollector::global();
  if (trace.externallyManaged()) {
    trace.setExternallyManaged(false);
    if (trace.enabled()) {
      std::string err;
      if (!trace.writeFile(&err)) {
        M3D_LOG(warn) << "m3d_serve: cannot write trace: " << err;
      } else {
        M3D_LOG(info) << "m3d_serve: trace written: " << opt_.tracePath;
      }
    }
  }
  M3D_LOG(info) << "m3d_serve: shut down (" << qs.done << " done, " << qs.failed
                << " failed, " << qs.cancelled << " cancelled, " << qs.coalesced
                << " coalesced)";
  return static_cast<int>(qs.failed);
#endif
}

void Server::acceptLoop() {
#ifdef __unix__
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listenFd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(connMu_);
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    // Join the handlers that have returned since the last accept, so the
    // daemon holds one thread (and its stack) per open connection rather
    // than one per connection ever served.
    for (const std::thread::id id : finishedConns_) {
      const auto it = std::find_if(connThreads_.begin(), connThreads_.end(),
                                   [id](const std::thread& t) { return t.get_id() == id; });
      it->join();
      connThreads_.erase(it);
    }
    finishedConns_.clear();
    connFds_.push_back(fd);
    connThreads_.emplace_back([this, fd] { handleConnection(fd); });
  }
#endif
}

void Server::handleConnection(int fd) {
#ifdef __unix__
  std::string buf;
  std::string line;
  while (!stop_.load() || !buf.empty()) {
    const RecvStatus rs = recvLine(fd, buf, &line);
    if (rs == RecvStatus::kTooLong) {
      sendAll(fd, encodeError("request line exceeds " +
                              std::to_string(kMaxRequestLineBytes) + " bytes") +
                      "\n");
      break;
    }
    if (rs == RecvStatus::kClosed) break;
    if (line.empty()) continue;
    std::string err;
    const auto req = obs::parseJson(line, &err);
    std::string resp;
    bool shutdownAfterReply = false;
    if (!req.has_value()) {
      resp = encodeError("bad request: " + err);
    } else {
      resp = handleRequest(*req, &shutdownAfterReply);
    }
    const bool sent = sendAll(fd, resp + "\n");
    if (shutdownAfterReply) requestShutdown();
    if (!sent) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(connMu_);
  connFds_.erase(std::find(connFds_.begin(), connFds_.end(), fd));
  finishedConns_.push_back(std::this_thread::get_id());
#endif
}

std::string Server::handleRequest(const obs::JsonValue& req, bool* shutdownAfterReply) {
  const obs::JsonValue* opField = req.find("op");
  if (opField == nullptr || !opField->isString()) {
    return encodeError("request has no 'op'");
  }
  const std::string& op = opField->str;

  if (op == "ping") {
    return okLine([&](obs::JsonWriter& w) {
      w.kv("server", "m3d_serve");
      w.kv("protocol", kProtocolVersion);
    });
  }

  if (op == "submit") {
    if (stop_.load()) return encodeError("server is shutting down");
    const obs::JsonValue* jobField = req.find("job");
    if (jobField == nullptr) return encodeError("submit has no 'job'");
    JobSpec spec;
    std::string err;
    if (!JobSpec::fromJson(*jobField, &spec, &err)) {
      return encodeError("bad job spec: " + err);
    }
    const std::uint64_t id = queue_.submit(spec);
    M3D_LOG(info) << "m3d_serve: job " << id << " submitted (" << jobKindName(spec.kind)
                  << " " << spec.flow << "/" << spec.tile
                  << (spec.label.empty() ? "" : ", label " + spec.label) << ")";
    return okLine([&](obs::JsonWriter& w) {
      w.kv("job_id", static_cast<std::int64_t>(id));
    });
  }

  if (op == "status" || op == "wait" || op == "result" || op == "cancel") {
    const obs::JsonValue* idField = req.find("job_id");
    if (idField == nullptr || !idField->isNumber()) {
      return encodeError(op + " has no 'job_id'");
    }
    const auto id = static_cast<std::uint64_t>(idField->number);

    if (op == "cancel") {
      if (queue_.cancel(id)) {
        return okLine([](obs::JsonWriter& w) { w.kv("state", "cancelled"); });
      }
      const auto job = queue_.find(id);
      if (job == nullptr) return encodeError("unknown job " + std::to_string(id));
      return encodeError("job " + std::to_string(id) + " is " +
                         jobStateName(job->state) + "; only queued jobs cancel");
    }

    std::shared_ptr<const Job> job;
    if (op == "wait") {
      int timeoutMs = 0;
      if (const obs::JsonValue* t = req.find("timeout_ms");
          t != nullptr && t->isNumber()) {
        timeoutMs = static_cast<int>(t->number);
      }
      job = queue_.waitJob(id, timeoutMs);
    } else {
      job = queue_.find(id);
    }
    if (job == nullptr) return encodeError("unknown job " + std::to_string(id));

    if (op == "result") {
      if (job->state != JobState::kDone) {
        return encodeError("job " + std::to_string(id) + " has no result (state " +
                           jobStateName(job->state) +
                           (job->error.empty() ? "" : ": " + job->error) + ")");
      }
      return okLine([&](obs::JsonWriter& w) {
        writeJobStatus(w, *job);
        w.key("result");
        job->result.writeJson(w);
      });
    }
    return okLine([&](obs::JsonWriter& w) { writeJobStatus(w, *job); });
  }

  if (op == "stats") {
    const QueueStats qs = queue_.stats();
    auto& reg = obs::MetricsRegistry::global();
    return okLine([&](obs::JsonWriter& w) {
      w.key("jobs");
      w.beginObject();
      w.kv("submitted", qs.submitted);
      w.kv("done", qs.done);
      w.kv("failed", qs.failed);
      w.kv("cancelled", qs.cancelled);
      w.kv("coalesced", qs.coalesced);
      w.kv("queued", qs.queued);
      w.kv("running", qs.running);
      w.endObject();
      w.key("cache");
      w.beginObject();
      w.kv("hits", reg.counter("db.stage_cache_hits").value());
      w.kv("misses", reg.counter("db.stage_cache_misses").value());
      w.kv("writes", reg.counter("db.stage_checkpoints_written").value());
      w.kv("evictions", reg.counter("db.stage_cache_evictions").value());
      w.kv("bytes", static_cast<std::int64_t>(reg.gauge("db.stage_cache_bytes").value()));
      w.endObject();
    });
  }

  if (op == "shutdown") {
    M3D_LOG(info) << "m3d_serve: shutdown requested by client";
    // The actual teardown happens in handleConnection *after* the response
    // is on the wire: requestShutdown() shuts every connection socket down
    // (including this one), so tearing down first would eat the ack.
    if (shutdownAfterReply != nullptr) *shutdownAfterReply = true;
    return okLine([](obs::JsonWriter& w) { w.kv("state", "draining"); });
  }

  return encodeError("unknown op '" + op + "'");
}

void Server::executorLoop() {
  while (std::shared_ptr<Job> job = queue_.dequeue()) {
    // A named track per job, only while tracing: the track-name table
    // never shrinks, so an untraced daemon claims none.
    if (obs::TraceCollector::global().enabled()) {
      obs::setThreadTrackId(obs::claimNamedAuxTrack("job-" + std::to_string(job->id)));
    }
    JobResult result;
    std::string err;
    const bool ok = runJob(*job, runner_, &result, &err);
    queue_.complete(job->id, ok, result, err);
    releaseFreedHeap();
    if (ok) {
      obs::counter("serve.jobs_done").add();
      if (job->coalesced) {
        obs::counter("serve.jobs_coalesced").add();
        coalescedPrefixStages_.fetch_add(result.cachePrefixStages,
                                         std::memory_order_relaxed);
      }
      M3D_LOG(info) << "m3d_serve: job " << job->id << " done in "
                    << static_cast<std::int64_t>(result.wallMs) << " ms (prefix "
                    << result.cachePrefixStages << "/7"
                    << (job->coalesced ? ", coalesced" : "") << ")";
    } else {
      obs::counter("serve.jobs_failed").add();
      M3D_LOG(error) << "m3d_serve: job " << job->id << " failed: " << err;
    }
  }
}

}  // namespace m3d::serve
