#pragma once

/// \file chrome_trace.hpp
/// Chrome Trace Event export: a process-global collector that buffers
/// completed spans ('X' events), counter samples ('C' events) and pool-task
/// intervals from every thread, then serializes them as Chrome Trace Event
/// JSON loadable in Perfetto / chrome://tracing.
///
/// The collector is OFF by default, and the only cost instrumented code
/// pays while it is off is one relaxed atomic load (enabled()). Recording
/// never changes algorithm results: events carry timestamps and copies of
/// already-computed values, so a traced run and an untraced run produce
/// bit-identical design artifacts.
///
/// Thread tracks: every thread has a stable integer track id --
///   0        the first thread that records (normally the flow thread),
///   1..63    thread-pool worker slots (pinned by core/parallel),
///   64+      any other thread, in first-use order.
/// The exporter names the tracks accordingly ("flow", "pool-worker-N").

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <atomic>
#include <mutex>

namespace m3d::obs {

/// Stable per-thread track id (see file comment for the numbering).
int threadTrackId();
/// Pins the calling thread's track id. Used by the thread pool to map
/// worker slot -> track; tests may use it to simulate tracks.
void setThreadTrackId(int id);

/// Allocates a fresh aux track id (64+) with a display name the exporter
/// emits as the track's thread_name metadata. A traced m3d_serve claims one
/// track per job ("job-<id>") and pins each job's executor thread to it with
/// setThreadTrackId, so a server trace shows one span track per job.
/// Cheap and lock-protected; the names are kept for the process lifetime.
int claimNamedAuxTrack(const std::string& name);

/// One buffered trace event.
struct TraceEvent {
  std::string name;
  char phase = 'X';          ///< 'X' complete span, 'C' counter sample.
  int tid = 0;               ///< threadTrackId() of the recording thread.
  std::int64_t tsNs = 0;     ///< monotonic clock at begin (or sample time).
  std::int64_t durNs = 0;    ///< 'X' only.
  double value = 0.0;        ///< 'C' only.
  std::vector<std::pair<std::string, double>> args;  ///< 'X' only.
};

/// Process-global trace event buffer + Chrome Trace JSON serializer.
class TraceCollector {
 public:
  /// Buffered events are capped so a runaway loop cannot exhaust memory;
  /// further events are counted in droppedEvents() instead of stored.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  static TraceCollector& global();

  /// The hot-path guard: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts collecting into a buffer destined for \p path. The path is
  /// opened (and truncated) immediately to verify writability; on failure
  /// the collector stays disabled and false is returned -- callers warn
  /// and continue, tracing must never abort a flow.
  bool enable(const std::string& path);
  /// Stops collecting and drops all buffered events (test isolation, or a
  /// flow abandoning its trace).
  void disable();

  /// Marks the collector as owned by a long-lived host (m3d_serve): while
  /// set, finishFlowRun leaves the trace open instead of flushing it at
  /// each flow's end, so one server trace spans many jobs. The owner clears
  /// the mark and calls writeFile itself at shutdown.
  void setExternallyManaged(bool v) { externallyManaged_.store(v, std::memory_order_relaxed); }
  bool externallyManaged() const { return externallyManaged_.load(std::memory_order_relaxed); }

  void recordComplete(std::string name, std::int64_t tsNs, std::int64_t durNs,
                      std::vector<std::pair<std::string, double>> args = {});
  /// Counter sample at the current monotonic time ('C' event). Rendered by
  /// Perfetto as a counter track named \p name.
  void recordCounter(std::string name, double value);

  std::size_t eventCount() const;
  std::size_t droppedEvents() const;
  std::string path() const;

  /// Serializes the buffered events as one Chrome Trace JSON document:
  /// thread-name metadata first, then all events sorted by timestamp
  /// (normalized so the earliest event is at ts 0, in microseconds).
  std::string toJson() const;

  /// Writes toJson() to the path given at enable(), then disables and
  /// clears the buffer. Returns false (with \p err set when provided) on
  /// I/O failure; the collector is disabled either way.
  bool writeFile(std::string* err = nullptr);

 private:
  TraceCollector() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<bool> externallyManaged_{false};
  mutable std::mutex mu_;
  std::string path_;
  std::vector<TraceEvent> events_;
  std::size_t dropped_ = 0;
};

}  // namespace m3d::obs
