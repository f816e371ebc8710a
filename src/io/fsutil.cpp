#include "io/fsutil.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#ifdef __unix__
#include <unistd.h>
#endif

namespace m3d::io {

namespace fs = std::filesystem;

namespace {

/// Collision-free temporary sibling name for atomic replacement. Concurrent
/// writers of the SAME destination (two jobs racing on one stage-cache key,
/// a daemon and a CLI sharing a cache directory) must never share a temp
/// file: interleaved writes to one ".tmp" followed by a rename would
/// publish torn bytes. pid + a process-wide sequence number make the name
/// unique across processes and threads.
std::string uniqueTempName(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  long pid = 0;
#ifdef __unix__
  pid = static_cast<long>(::getpid());
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

bool ensureDirectories(const std::string& dir) {
  if (dir.empty()) return false;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return false;
  return fs::is_directory(dir, ec) && !ec;
}

bool atomicWriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes,
                     std::string* err) {
  const std::span<const std::uint8_t> whole(bytes);
  return atomicWriteFile(path, std::span(&whole, 1), err);
}

bool atomicWriteFile(const std::string& path,
                     std::span<const std::span<const std::uint8_t>> parts, std::string* err) {
  const std::string tmp = uniqueTempName(path);
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      if (err) *err = "cannot open for write: " + tmp;
      return false;
    }
    for (const std::span<const std::uint8_t> part : parts) {
      if (part.empty()) continue;
      f.write(reinterpret_cast<const char*>(part.data()),
              static_cast<std::streamsize>(part.size()));
    }
    f.flush();
    if (!f) {
      if (err) *err = "write failed: " + tmp;
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (err) *err = "rename " + tmp + " -> " + path + " failed: " + ec.message();
    std::error_code ec2;
    fs::remove(tmp, ec2);
    return false;
  }
  return true;
}

bool readFileBytes(const std::string& path, std::vector<std::uint8_t>& bytes,
                   std::string* err) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) {
    if (err) *err = "cannot open: " + path;
    return false;
  }
  const std::streamsize size = f.tellg();
  if (size < 0) {
    if (err) *err = "cannot stat: " + path;
    return false;
  }
  bytes.resize(static_cast<std::size_t>(size));
  f.seekg(0);
  if (size > 0) f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) {
    if (err) *err = "read failed: " + path;
    return false;
  }
  return true;
}

bool fileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec) && !ec;
}

std::int64_t fileSizeBytes(const std::string& path) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec) || ec) return -1;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return -1;
  return static_cast<std::int64_t>(size);
}

}  // namespace m3d::io
