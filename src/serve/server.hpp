#pragma once

/// \file server.hpp
/// The m3d_serve daemon core: a Unix-domain-socket server that accepts
/// line-delimited JSON requests (serve/protocol.hpp), schedules submitted
/// jobs through a coalescing JobQueue, and executes them on a pool of
/// executor threads that all share one on-disk stage cache.
///
/// Threading model:
///   - start() binds/listens and spawns the accept thread + N executor
///     threads, then returns. wait() blocks the *same* thread that called
///     start() until shutdown and performs the teardown there (the server's
///     aggregate ScopedRun is pinned to that thread's tracer).
///   - each accepted connection gets its own handler thread; requests on
///     one connection are processed in order, connections are independent.
///     A request line over 1 MiB gets an error reply and its connection is
///     closed. Finished handlers are joined at the next accept.
///   - while a trace is being collected, each executor claims a named trace
///     track per job ("job-<id>") and pins itself to it before running the
///     flow, so a traced server shows one span track per job.
///
/// Shutdown (requestShutdown(), a client "shutdown" op, or a signal
/// forwarded by m3d_serve_main) is graceful: the listen socket closes (no
/// new connections), queued jobs are cancelled, running jobs drain to
/// completion, connection threads are unblocked and joined, and wait()
/// finally writes the aggregate run report and the Chrome trace.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "obs/run_report.hpp"
#include "serve/job_queue.hpp"
#include "serve/job_runner.hpp"

namespace m3d::serve {

struct ServerOptions {
  std::string socketPath;        ///< Unix-domain socket path (required).
  std::string cacheDir;          ///< shared stage cache ("" = caching off).
  std::int64_t cacheMaxBytes = 0;  ///< LRU budget of the shared cache.
  int executors = 2;             ///< concurrent job executor threads.
  int jobThreads = 1;            ///< default per-job thread count.
  std::string reportPath;        ///< aggregate run-report JSON ("" = none).
  std::string tracePath;         ///< Chrome trace JSON ("" = none).
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept + executor threads. False with
  /// \p err on failure (socket errors, path too long for sockaddr_un, or
  /// another server already answering at the path; a stale socket file with
  /// no server behind it is removed and reused).
  bool start(std::string* err);

  /// Initiates graceful shutdown. Safe from any thread, idempotent.
  void requestShutdown();

  /// Blocks until shutdown completes (call on the start() thread). Joins
  /// every thread, then writes the aggregate run report / trace when
  /// configured. Returns the number of jobs that failed.
  int wait();

  JobQueue& queue() { return queue_; }
  const ServerOptions& options() const { return opt_; }

 private:
  void acceptLoop();
  void executorLoop();
  void handleConnection(int fd);
  /// Builds the one-line JSON response to one parsed request. A "shutdown"
  /// op sets \p shutdownAfterReply instead of tearing down inline, so the
  /// connection can flush the acknowledgement first.
  std::string handleRequest(const obs::JsonValue& req, bool* shutdownAfterReply);

  ServerOptions opt_;
  RunnerOptions runner_;
  JobQueue queue_;

  std::atomic<bool> stop_{false};
  std::mutex stopMu_;
  std::condition_variable stopCv_;

  int listenFd_ = -1;
  std::thread acceptThread_;
  std::vector<std::thread> executorThreads_;
  std::mutex connMu_;
  std::vector<int> connFds_;                ///< open connection sockets.
  std::vector<std::thread> connThreads_;
  /// Handlers that have returned; acceptLoop joins them on its next accept.
  std::vector<std::thread::id> finishedConns_;

  std::optional<obs::ScopedRun> run_;       ///< aggregate report bracket.
  std::atomic<std::int64_t> coalescedPrefixStages_{0};
  bool started_ = false;
};

}  // namespace m3d::serve
