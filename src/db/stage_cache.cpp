#include "db/stage_cache.hpp"

#include <algorithm>
#include <cerrno>
#include <tuple>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "io/fsutil.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace m3d::db {

namespace {

constexpr const char* kLockName = "cache_index.lock";

/// Exclusive advisory lock on the cache directory's lock file: one
/// publisher at a time across threads and processes (flock is per open
/// file, so each locker opens its own descriptor).
class DirLock {
 public:
  explicit DirLock(const std::string& dir) {
    const std::string lockPath = dir + "/" + kLockName;
    fd_ = ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0) {
      while (::flock(fd_, LOCK_EX) != 0) {
        if (errno != EINTR) break;
      }
    }
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

/// A file the cache wrote: an entry, or the temp file of a save whose
/// writer was killed before its rename (or is still writing).
struct CacheFile {
  std::int64_t mtimeNs = 0;
  std::string name;  ///< relative to the cache directory.
  std::int64_t bytes = 0;
};

/// True for the names the cache writes: `*.m3ddb` entries and the
/// `*.m3ddb.tmp.<pid>.<seq>` temp files of io::atomicWriteFile.
bool isCacheFile(std::string_view name) {
  return name.ends_with(".m3ddb") || name.find(".m3ddb.tmp.") != std::string_view::npos;
}

/// Every regular cache file in \p dir, least recently used first: by
/// modification time, ties broken by name. One fstatat per file: the scan
/// runs on every publish.
std::vector<CacheFile> scanCacheFiles(const std::string& dir) {
  std::vector<CacheFile> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (const dirent* e = ::readdir(d)) {
    struct stat st {};
    if (!isCacheFile(e->d_name) ||
        ::fstatat(::dirfd(d), e->d_name, &st, AT_SYMLINK_NOFOLLOW) != 0 || !S_ISREG(st.st_mode)) {
      continue;  // not the cache's, or gone since readdir
    }
    files.push_back({st.st_mtim.tv_sec * std::int64_t{1'000'000'000} + st.st_mtim.tv_nsec,
                     e->d_name, static_cast<std::int64_t>(st.st_size)});
  }
  ::closedir(d);
  std::sort(files.begin(), files.end(), [](const CacheFile& a, const CacheFile& b) {
    return std::tie(a.mtimeNs, a.name) < std::tie(b.mtimeNs, b.name);
  });
  return files;
}

std::int64_t totalBytes(const std::vector<CacheFile>& files) {
  std::int64_t total = 0;
  for (const CacheFile& f : files) total += f.bytes;
  return total;
}

}  // namespace

StageCache::StageCache(std::string dir, bool resume, StageCacheOptions opt)
    : dir_(std::move(dir)), resume_(resume), opt_(opt) {
  if (dir_.empty()) return;
  if (!io::ensureDirectories(dir_)) {
    M3D_LOG(warn) << "stage cache disabled: cannot create directory " << dir_;
    dir_.clear();
  }
}

std::string StageCache::path(int stageIdx, std::string_view stageName,
                             std::uint64_t key) const {
  static const char* kHex = "0123456789abcdef";
  std::string keyHex(16, '0');
  for (int i = 15; i >= 0; --i) {
    keyHex[static_cast<std::size_t>(i)] = kHex[key & 0xF];
    key >>= 4;
  }
  std::string p = dir_;
  p += "/stage";
  p += std::to_string(stageIdx);
  p += '_';
  p.append(stageName.data(), stageName.size());
  p += '_';
  p += keyHex;
  p += ".m3ddb";
  return p;
}

bool StageCache::has(int stageIdx, std::string_view stageName, std::uint64_t key) const {
  return enabled() && io::fileExists(path(stageIdx, stageName, key));
}

void StageCache::noteStored(const std::string& entryPath) {
  if (!enabled()) return;
  const std::string_view name =
      std::string_view(entryPath).substr(entryPath.find_last_of('/') + 1);
  DirLock lock(dir_);
  const std::vector<CacheFile> files = scanCacheFiles(dir_);
  std::int64_t total = totalBytes(files);
  // LRU eviction under the byte budget; the entry just published is exempt
  // (evicting it would turn its own run's restore into a guaranteed miss).
  for (const CacheFile& f : files) {
    if (opt_.maxBytes <= 0 || total <= opt_.maxBytes) break;
    if (f.name == name) continue;
    if (::unlink((dir_ + "/" + f.name).c_str()) != 0) {
      if (errno == ENOENT) total -= f.bytes;  // gone: renamed by its writer, or removeEntry
      continue;
    }
    total -= f.bytes;
    obs::counter("db.stage_cache_evictions").add(1);
    obs::counter("db.stage_cache_evicted_bytes").add(f.bytes);
    M3D_LOG(debug) << "stage cache: evicted " << f.name << " (" << f.bytes << " B, LRU)";
  }
  obs::gauge("db.stage_cache_bytes").set(static_cast<double>(total));
}

void StageCache::noteUsed(const std::string& entryPath) {
  if (!enabled()) return;
  // A concurrent eviction may have unlinked the entry; then there is
  // nothing to touch.
  ::utimensat(AT_FDCWD, entryPath.c_str(), nullptr, 0);
}

void StageCache::removeEntry(const std::string& entryPath) {
  if (!enabled()) return;
  ::unlink(entryPath.c_str());
}

std::int64_t StageCache::diskBytes() const {
  if (!enabled()) return -1;
  return totalBytes(scanCacheFiles(dir_));
}

}  // namespace m3d::db
