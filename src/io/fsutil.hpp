#pragma once

/// \file fsutil.hpp
/// Small filesystem helpers for the design database (src/db), the flows and
/// the flow service: directory creation, atomic whole-file replacement and
/// whole-file reads. Kept dependency-free (std::filesystem + <fstream> only).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace m3d::io {

/// Creates \p dir and every missing parent. Returns true when the directory
/// exists afterwards (already existing is success).
bool ensureDirectories(const std::string& dir);

/// Atomically replaces \p path with \p bytes: the data is written to a
/// sibling temporary file which is then renamed over \p path, so readers
/// never observe a half-written file (the property the stage cache relies
/// on when a run is interrupted mid-save). The temporary name embeds the
/// pid and a process-wide sequence number, so concurrent writers of the
/// same destination (two jobs racing on one stage-cache key, possibly in
/// different processes) each write a private temp file and the last rename
/// wins whole -- a reader can never observe bytes from two writers mixed.
/// Returns false on any I/O error; \p err (optional) receives a diagnostic.
bool atomicWriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes,
                     std::string* err = nullptr);

/// As above, with the file's bytes given as the concatenation of \p parts,
/// each written in place (a writer with its data in several buffers never
/// copies them into one).
bool atomicWriteFile(const std::string& path,
                     std::span<const std::span<const std::uint8_t>> parts,
                     std::string* err = nullptr);

/// Reads the whole file into \p bytes. Returns false (with \p err set when
/// provided) if the file cannot be opened or read.
bool readFileBytes(const std::string& path, std::vector<std::uint8_t>& bytes,
                   std::string* err = nullptr);

/// True when \p path names an existing regular file.
bool fileExists(const std::string& path);

/// Size of the regular file at \p path in bytes, or -1 when it does not
/// exist or cannot be stat'ed (telemetry callers treat that as "unknown").
std::int64_t fileSizeBytes(const std::string& path);

}  // namespace m3d::io
