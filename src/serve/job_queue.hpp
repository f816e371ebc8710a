#pragma once

/// \file job_queue.hpp
/// Priority job queue with ECO coalescing for m3d_serve.
///
/// Jobs are dispatched highest priority first, FIFO within a priority --
/// with one scheduling twist, *coalescing*: jobs sharing a JobSpec::baseKey()
/// (same design, differing only in ECO knobs / thread counts) form a batch.
/// At most one member of a batch runs at a time, and once any member has
/// completed, the others inherit two accelerators when dispatched:
///   - the shared stage-cache place/pre_route_opt/cts prefix is warm (the
///     flow replays it from disk instead of recomputing), and
///   - ECO members receive the *base flow job's* signoff-stage checkpoint
///     (JobResult::finalCheckpoint, which holds its routes) as their
///     routeDesignEco seed, so only pitch-dirtied nets reroute.
/// Serializing a batch trades a little parallelism for those hits: N pitch
/// ECOs against one base design cost one cold prefix + N cheap replays
/// instead of N cold prefixes racing to publish the same checkpoints.
/// Distinct batches still run concurrently across executor threads.
///
/// The seed is taken only from completed kFlow members (never from another
/// ECO), so every ECO's route input is independent of the order in which
/// its sibling ECOs finish -- determinism of results over scheduling.
///
/// Thread-safety: every method locks the queue's one mutex; waitJob blocks
/// on a condition variable. The queue never runs jobs itself -- executor
/// threads call dequeue()/complete() and do the work between.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <condition_variable>

#include "serve/protocol.hpp"

namespace m3d::serve {

/// One submitted job and everything the server knows about it.
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::uint64_t baseKey = 0;
  std::uint64_t submitSeq = 0;   ///< FIFO tiebreak within a priority.

  // Filled at dispatch time by the queue (coalescing decisions).
  std::string ecoSeedPath;       ///< routeDesignEco seed ("" = none).
  bool coalesced = false;        ///< a batch sibling completed before us.

  // Filled by the executor at completion.
  JobResult result;
  std::string error;             ///< kFailed diagnostic.
};

/// Aggregate queue statistics (for the stats op and the run report).
struct QueueStats {
  std::int64_t submitted = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t coalesced = 0;    ///< jobs dispatched with a warm batch.
  std::int64_t queued = 0;       ///< current depth (not yet dispatched).
  std::int64_t running = 0;
};

class JobQueue {
 public:
  /// Terminal (done, failed or cancelled) jobs the queue remembers for
  /// find/waitJob. Past this many the oldest-finished is forgotten, and its
  /// id then answers like an unknown one, so a long-lived daemon's job table
  /// stays bounded. Queued and running jobs are never forgotten.
  static constexpr std::size_t kMaxFinishedJobs = 1024;

  /// Submits a job; returns its id (ids start at 1). The spec must already
  /// have passed JobSpec::validate().
  std::uint64_t submit(const JobSpec& spec);

  /// Blocks until a job is dispatchable or close() is called; returns
  /// nullptr only after close() with the queue drained of dispatchable
  /// work. The returned job is a snapshot (state kRunning, coalescing
  /// fields filled); the queue retains the canonical record.
  std::shared_ptr<Job> dequeue();

  /// Reports a dequeued job's outcome. \p result is consulted (and the
  /// job's batch marked warm, its signoff checkpoint recorded as the ECO
  /// seed) only when \p ok; otherwise \p error is stored and the job is
  /// kFailed. Wakes waitJob waiters.
  void complete(std::uint64_t jobId, bool ok, const JobResult& result,
                const std::string& error);

  /// Cancels a queued job (running jobs are not interrupted: flows have no
  /// safe preemption point). Returns true when the job went kQueued ->
  /// kCancelled; false when unknown, already running or terminal.
  bool cancel(std::uint64_t jobId);

  /// Snapshot of a job by id (nullptr when unknown or forgotten).
  std::shared_ptr<const Job> find(std::uint64_t jobId) const;

  /// Blocks until the job is terminal or \p timeoutMs elapses (<= 0 waits
  /// forever). Returns the snapshot, nullptr when the id is unknown.
  std::shared_ptr<const Job> waitJob(std::uint64_t jobId, int timeoutMs) const;

  /// Stops dispatching: dequeue() returns nullptr once no dispatchable job
  /// remains, and every still-queued job is cancelled immediately.
  void close();
  bool closed() const;

  QueueStats stats() const;

 private:
  /// Per-baseKey batch bookkeeping.
  struct Batch {
    int runningMembers = 0;       ///< 0 or 1 (batches are serialized).
    bool warm = false;            ///< some member completed successfully.
    std::string ecoSeedPath;      ///< base kFlow job's signoff checkpoint.
  };

  /// Picks the best dispatchable queued job under mu_ (highest priority,
  /// then submit order, skipping jobs whose batch is busy); npos when none.
  std::size_t pickLocked() const;

  /// Records under mu_ that \p jobId just became terminal, forgetting the
  /// oldest-finished jobs past kMaxFinishedJobs.
  void retireLocked(std::uint64_t jobId);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::uint64_t nextId_ = 1;
  std::uint64_t nextSeq_ = 1;
  bool closed_ = false;
  std::vector<std::shared_ptr<Job>> pending_;  ///< queued jobs, submit order.
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  ///< remembered jobs by id.
  std::deque<std::uint64_t> finished_;         ///< terminal job ids, oldest first.
  std::map<std::uint64_t, Batch> batches_;     ///< by baseKey.
  QueueStats stats_;
};

}  // namespace m3d::serve
