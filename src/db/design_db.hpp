#pragma once

/// \file design_db.hpp
/// Versioned binary container of the design database.
///
/// A DesignDb is an ordered set of named byte sections (each produced by a
/// codec from codec.hpp). On disk (see DESIGN.md, "Design database
/// format"):
///
///   [ 8B magic "M3DDB\r\n\x1a" ][ u32 version ][ u32 sectionCount ]
///   [ u64 tableHash ][ section table ][ payloads... ]
///
/// The section table holds, per section: name (length-prefixed), payload
/// offset (relative to the payload area), payload size, and the payload's
/// content hash (XXH64, db/hash.hpp). tableHash is the content hash of the
/// serialized table bytes, so corruption anywhere — header, table or
/// payload — is detected before any payload is decoded. Loading fails
/// closed: parse() returns a typed DbStatus and leaves the object empty on
/// any error; it never exposes a partially validated file.
///
/// Section order is preserved (insertion order on build, file order on
/// load) and the writers emit sections in a fixed order, so
/// save -> load -> save is byte-identical.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/serialize.hpp"

namespace m3d::db {

class DesignDb {
 public:
  /// Container format version. Bump on any incompatible layout change;
  /// loaders reject other versions with DbError::kBadVersion.
  static constexpr std::uint32_t kFormatVersion = 6;  // v6: XXH64 section and table hashes
  /// 8-byte magic: identifies the format and (via \r\n\x1a) catches text-
  /// mode and truncation mangling early.
  static const char kMagic[9];
  /// Hard cap on sections per file (a corrupt count fails fast).
  static constexpr std::uint32_t kMaxSections = 256;

  /// Adds (or replaces) a section. Insertion order is the file order.
  void setSection(std::string_view name, std::vector<std::uint8_t> payload);

  /// Payload of \p name, or nullptr when absent.
  const std::vector<std::uint8_t>* section(std::string_view name) const;
  /// Content hash (XXH64) of the section payload (0 when absent).
  std::uint64_t sectionHash(std::string_view name) const;
  std::vector<std::string> sectionNames() const;
  int numSections() const { return static_cast<int>(sections_.size()); }
  void clear() { sections_.clear(); }

  /// Serializes the container (header + table + payloads).
  std::vector<std::uint8_t> serialize() const;

  /// Parses and fully verifies \p bytes (magic, version, table hash, every
  /// section hash). On failure the container is left empty.
  DbStatus parse(const std::vector<std::uint8_t>& bytes);

  /// Atomic file replacement with the bytes of serialize(), streamed: the
  /// header and table, then each payload in place, go straight into the
  /// temporary file (no whole-file copy in memory).
  DbStatus saveFile(const std::string& path) const;
  /// Whole-file read + parse().
  DbStatus loadFile(const std::string& path);

 private:
  /// Magic, version, section count, table hash and section table: the bytes
  /// in front of the payloads, shared by serialize() and saveFile().
  std::vector<std::uint8_t> header() const;

  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

}  // namespace m3d::db
