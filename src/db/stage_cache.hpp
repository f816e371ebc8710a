#pragma once

/// \file stage_cache.hpp
/// Content-addressed on-disk cache of pipeline stage checkpoints, safe for
/// concurrent multi-job (and multi-process) use.
///
/// Each of the seven flow_common pipeline stages has a 64-bit content key:
/// a chained hash of the pipeline entry state (library, netlist, floorplan,
/// tile groups), the stage name, and the FlowOptions subset that stage
/// actually reads (see flows/flow_checkpoint.hpp for the key recipe). The
/// cache is a filename convention over a directory:
///
///   <dir>/stage<idx>_<name>_<key-hex>.m3ddb
///
/// so a cache hit is an existence check and validity is implied by the key
/// (content-addressed entries are immutable; a config or input change
/// yields a different key, never a stale read). Corrupt or truncated files
/// are detected by the DesignDb loader at restore time and treated as
/// misses. Thread counts never enter a key: the deterministic-parallelism
/// contract makes results bit-identical at any count, so checkpoints are
/// shared across thread configurations.
///
/// Concurrency model (the m3d_serve shared-cache contract)
/// -------------------------------------------------------
/// - Entry files are immutable once published and written via unique-temp
///   atomic replacement (io::atomicWriteFile), so a reader never parses a
///   torn file. Two jobs racing on the same key deterministically compute
///   identical bytes; whichever rename lands last wins whole.
/// - The directory is the only record. LRU order is each entry file's
///   modification time, ties broken by name; a hit touches it (noteUsed).
/// - A publish (noteStored) scans the directory under an exclusive OS file
///   lock on <dir>/cache_index.lock, one publisher at a time across threads
///   AND processes. With StageCacheOptions::maxBytes > 0 it unlinks the
///   least recently used cache files -- entries, and temp files of saves
///   killed before their rename; never another file, nor the entry just
///   published -- until the directory fits. A reader that loses the race
///   with an eviction simply misses and recomputes -- the fail-closed
///   restore path makes that safe.
/// Counters: db.stage_cache_evictions, db.stage_cache_evicted_bytes, and
/// the db.stage_cache_bytes gauge surface through the obs run report.

#include <cstdint>
#include <string>
#include <string_view>

namespace m3d::db {

/// Behavior knobs of the shared stage cache.
struct StageCacheOptions {
  /// Byte budget of the cache directory (entry and temp files). 0 keeps the
  /// cache unbounded; > 0 enables LRU eviction at publish time.
  std::int64_t maxBytes = 0;
};

class StageCache {
 public:
  /// Disabled cache: enabled() == false, every query misses.
  StageCache() = default;

  /// Cache over \p dir (created on demand). \p resume gates restoring:
  /// when false the cache still records checkpoints but never reads them
  /// (cold run that warms the cache).
  StageCache(std::string dir, bool resume, StageCacheOptions opt = {});

  bool enabled() const { return !dir_.empty(); }
  bool resumeEnabled() const { return enabled() && resume_; }

  /// Checkpoint file path of (\p stageIdx, \p stageName, \p key).
  std::string path(int stageIdx, std::string_view stageName, std::uint64_t key) const;
  /// True when the checkpoint file exists (the cache-hit test).
  bool has(int stageIdx, std::string_view stageName, std::uint64_t key) const;

  /// Publishes a just-written entry file: under the directory lock, evicts
  /// the least recently used cache files while the directory exceeds the
  /// byte budget (\p entryPath is exempt). Call after a successful atomic
  /// write of \p entryPath.
  void noteStored(const std::string& entryPath);
  /// LRU touch without the lock: sets \p entryPath's modification time to
  /// now. Call after a restore from the entry, or instead of rewriting it.
  void noteUsed(const std::string& entryPath);
  /// Self-heal: unlinks \p entryPath. Called when a restore finds the entry
  /// corrupt (a torn write from a crashed producer), so the recomputing run
  /// can re-publish a good copy instead of the stale bytes shadowing the
  /// key forever.
  void removeEntry(const std::string& entryPath);

  /// Total bytes of the files the cache wrote that are in the directory
  /// now (a directory scan). -1 when the cache is disabled.
  std::int64_t diskBytes() const;

 private:
  std::string dir_;
  bool resume_ = true;
  StageCacheOptions opt_;
};

}  // namespace m3d::db
