#include "db/design_db.hpp"

#include <cstring>
#include <span>

#include "db/hash.hpp"
#include "io/fsutil.hpp"

namespace m3d::db {

const char DesignDb::kMagic[9] = "M3DDB\r\n\x1a";

const char* dbErrorName(DbError e) {
  switch (e) {
    case DbError::kNone: return "none";
    case DbError::kIoError: return "io_error";
    case DbError::kBadMagic: return "bad_magic";
    case DbError::kBadVersion: return "bad_version";
    case DbError::kTruncated: return "truncated";
    case DbError::kHashMismatch: return "hash_mismatch";
    case DbError::kMissingSection: return "missing_section";
    case DbError::kMalformed: return "malformed";
  }
  return "?";
}

void DesignDb::setSection(std::string_view name, std::vector<std::uint8_t> payload) {
  for (Section& s : sections_) {
    if (s.name == name) {
      s.payload = std::move(payload);
      return;
    }
  }
  sections_.push_back(Section{std::string(name), std::move(payload)});
}

const std::vector<std::uint8_t>* DesignDb::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s.payload;
  }
  return nullptr;
}

std::uint64_t DesignDb::sectionHash(std::string_view name) const {
  const std::vector<std::uint8_t>* p = section(name);
  return p == nullptr ? 0 : contentHash64(p->data(), p->size());
}

std::vector<std::string> DesignDb::sectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

std::vector<std::uint8_t> DesignDb::header() const {
  // Table first (into its own buffer so its hash covers exactly its bytes).
  BinWriter table;
  std::uint64_t offset = 0;
  for (const Section& s : sections_) {
    table.str(s.name);
    table.u64(offset);
    table.u64(static_cast<std::uint64_t>(s.payload.size()));
    table.u64(contentHash64(s.payload.data(), s.payload.size()));
    offset += s.payload.size();
  }
  const std::vector<std::uint8_t>& tableBytes = table.buffer();

  BinWriter out;
  out.bytes(kMagic, 8);
  out.u32(kFormatVersion);
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  out.u64(contentHash64(tableBytes.data(), tableBytes.size()));
  out.bytes(tableBytes.data(), tableBytes.size());
  return out.take();
}

std::vector<std::uint8_t> DesignDb::serialize() const {
  std::vector<std::uint8_t> bytes = header();
  std::size_t total = bytes.size();
  for (const Section& s : sections_) total += s.payload.size();
  bytes.reserve(total);
  for (const Section& s : sections_) {
    bytes.insert(bytes.end(), s.payload.begin(), s.payload.end());
  }
  return bytes;
}

DbStatus DesignDb::parse(const std::vector<std::uint8_t>& bytes) {
  sections_.clear();
  BinReader r(bytes);
  char magic[8] = {};
  if (!r.read(magic, 8)) {
    return DbStatus::fail(DbError::kTruncated, "file shorter than the 8-byte magic");
  }
  if (std::memcmp(magic, kMagic, 8) != 0) {
    return DbStatus::fail(DbError::kBadMagic, "not an M3DDB file");
  }
  const std::uint32_t version = r.u32();
  const std::uint32_t count = r.u32();
  const std::uint64_t tableHash = r.u64();
  if (!r.ok()) return DbStatus::fail(DbError::kTruncated, "header truncated");
  if (version != kFormatVersion) {
    return DbStatus::fail(DbError::kBadVersion,
                          "format version " + std::to_string(version) + ", expected " +
                              std::to_string(kFormatVersion));
  }
  if (count > kMaxSections) {
    return DbStatus::fail(DbError::kMalformed,
                          "section count " + std::to_string(count) + " exceeds the cap");
  }

  struct Entry {
    std::string name;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t hash = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(count);
  const std::size_t tableStart = r.position();
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.name = r.str();
    e.offset = r.u64();
    e.size = r.u64();
    e.hash = r.u64();
    if (!r.ok()) return DbStatus::fail(DbError::kTruncated, "section table truncated");
    if (e.name.empty()) return DbStatus::fail(DbError::kMalformed, "empty section name");
    entries.push_back(std::move(e));
  }
  const std::size_t tableEnd = r.position();
  if (contentHash64(bytes.data() + tableStart, tableEnd - tableStart) != tableHash) {
    return DbStatus::fail(DbError::kHashMismatch, "section table hash mismatch");
  }

  const std::size_t payloadStart = tableEnd;
  const std::size_t payloadSize = bytes.size() - payloadStart;
  std::uint64_t expectedOffset = 0;
  for (const Entry& e : entries) {
    // Offsets must tile the payload area contiguously in table order — the
    // invariant the writer maintains and the byte-identity property needs.
    if (e.offset != expectedOffset) {
      return DbStatus::fail(DbError::kMalformed, "section '" + e.name + "' offset mismatch");
    }
    if (e.size > payloadSize || e.offset > payloadSize - e.size) {
      return DbStatus::fail(DbError::kTruncated,
                            "section '" + e.name + "' runs past the end of the file");
    }
    expectedOffset += e.size;
  }
  if (expectedOffset != payloadSize) {
    return DbStatus::fail(DbError::kTruncated, "payload area size mismatch");
  }
  for (const Entry& e : entries) {
    const std::uint8_t* p = bytes.data() + payloadStart + e.offset;
    if (contentHash64(p, static_cast<std::size_t>(e.size)) != e.hash) {
      return DbStatus::fail(DbError::kHashMismatch, "section '" + e.name + "' hash mismatch");
    }
  }
  // Fully verified: materialize.
  for (const Entry& e : entries) {
    const std::uint8_t* p = bytes.data() + payloadStart + e.offset;
    sections_.push_back(
        Section{e.name, std::vector<std::uint8_t>(p, p + static_cast<std::size_t>(e.size))});
  }
  return DbStatus::success();
}

DbStatus DesignDb::saveFile(const std::string& path) const {
  const std::vector<std::uint8_t> head = header();
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(sections_.size() + 1);
  parts.emplace_back(head);
  for (const Section& s : sections_) parts.emplace_back(s.payload);
  std::string err;
  if (!io::atomicWriteFile(path, parts, &err)) {
    return DbStatus::fail(DbError::kIoError, err);
  }
  return DbStatus::success();
}

DbStatus DesignDb::loadFile(const std::string& path) {
  sections_.clear();
  std::vector<std::uint8_t> bytes;
  std::string err;
  if (!io::readFileBytes(path, bytes, &err)) {
    return DbStatus::fail(DbError::kIoError, err);
  }
  return parse(bytes);
}

}  // namespace m3d::db
