#pragma once

/// \file serialize.hpp
/// Binary serialization primitives of the design database: a cursor-append
/// little-endian writer and a strictly bounds-checked reader that fails
/// closed — any overrun, oversized count or malformed record flips the
/// reader into a sticky failed state and every subsequent read returns a
/// zero value, so decoders can run to completion and check ok() once.
/// Both offer the same codec interface (kReading, field overloads, count,
/// enumU8, check, table), so one codec per type (codec.hpp) runs in either
/// direction. Typed errors (DbError / DbStatus) are shared by the container
/// (design_db.hpp) and the codecs.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace m3d::db {

/// Typed failure classes of database load/save. Every corrupt-input path
/// maps to one of these (the fault-injection tests assert the mapping).
enum class DbError {
  kNone = 0,
  kIoError,        ///< file missing / unreadable / unwritable.
  kBadMagic,       ///< file does not start with the M3DDB magic.
  kBadVersion,     ///< container format version not supported.
  kTruncated,      ///< structure runs past the end of the file.
  kHashMismatch,   ///< section table or payload hash check failed.
  kMissingSection, ///< a required section is absent.
  kMalformed,      ///< section payload fails structural validation.
};

const char* dbErrorName(DbError e);

struct DbStatus {
  DbError error = DbError::kNone;
  std::string detail;

  bool ok() const { return error == DbError::kNone; }
  static DbStatus success() { return DbStatus{}; }
  static DbStatus fail(DbError e, std::string d) { return DbStatus{e, std::move(d)}; }
};

/// Append-only little-endian byte-stream writer.
///
/// Appends through a write cursor over a buffer whose size doubles when it
/// runs out, so each scalar is one bounds check and one memcpy. size(),
/// buffer() and take() expose exactly the bytes written, never the spare
/// capacity past the cursor.
class BinWriter {
 public:
  void u8(std::uint8_t v) { put(&v, sizeof v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Doubles are stored by bit pattern: a save -> load -> save round trip
  /// is byte-identical (NaNs and signed zeros included).
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t n) {
    if (n > 0) put(data, n);
  }

  // Codec interface (codec.hpp): writes what BinReader's reads back.
  static constexpr bool kReading = false;
  /// Writes each field by its type.
  template <typename... T>
  void operator()(const T&... v) {
    (field(v), ...);
  }
  /// Writes the element count of \p v (\p minBytes guards the reader).
  template <typename V>
  void count(const V& v, std::size_t /*minBytes*/) {
    u64(static_cast<std::uint64_t>(v.size()));
  }
  /// Writes \p e as a u8 (\p last bounds the reader).
  template <typename E>
  void enumU8(E e, E /*last*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  /// The writer trusts the state it encodes: only the reader checks.
  static constexpr bool check(bool) { return true; }
  static constexpr bool ok() { return true; }
  /// The table a codec writes for an object that keeps it private: the
  /// object's own.
  template <typename T>
  static const T& table(const T& live) {
    return live;
  }

  std::size_t size() const { return size_; }
  const std::vector<std::uint8_t>& buffer() const {
    buf_.resize(size_);  // drops the spare capacity past the cursor
    return buf_;
  }
  std::vector<std::uint8_t> take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  void field(bool v) { b(v); }
  void field(std::uint8_t v) { u8(v); }
  void field(std::int32_t v) { i32(v); }
  void field(std::uint32_t v) { u32(v); }
  void field(std::int64_t v) { i64(v); }
  void field(std::uint64_t v) { u64(v); }
  void field(double v) { f64(v); }
  void field(const std::string& v) { str(v); }
  /// Exactly the types above: no conversion may change a field's width.
  template <typename T>
  void field(const T&) = delete;

  template <typename T>
  void le(T v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    if constexpr (sizeof v == 8) {
      v = __builtin_bswap64(v);
    } else {
      v = __builtin_bswap32(v);
    }
#endif
    put(&v, sizeof v);
  }
  void put(const void* data, std::size_t n) {
    if (buf_.size() - size_ < n) grow(n);
    std::memcpy(buf_.data() + size_, data, n);
    size_ += n;
  }
  /// Out of line: put() stays a compare, a copy and an add at each of the
  /// hundreds of call sites db::encode flattens into its codec.
  [[gnu::noinline]] void grow(std::size_t n) {
    buf_.resize(std::max({2 * buf_.size(), size_ + n, kMinCapacity}));
  }

  static constexpr std::size_t kMinCapacity = 256;
  /// buf_.size() is the capacity; bytes past size_ are spare.
  mutable std::vector<std::uint8_t> buf_;
  std::size_t size_ = 0;
};

/// Bounds-checked little-endian reader over a borrowed byte range.
///
/// Failure is sticky: once any read overruns (or a decoder calls fail()),
/// every later scalar read returns 0 / "" and ok() stays false. Decoders
/// therefore never need intermediate checks for memory safety — only
/// allocation-bearing reads (count()) must be checked eagerly so a corrupt
/// length cannot drive a huge resize before the overrun is noticed.
class BinReader {
 public:
  BinReader(const std::uint8_t* data, std::size_t size) : p_(data), size_(size) {}
  explicit BinReader(const std::vector<std::uint8_t>& buf)
      : BinReader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    takeLe(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    takeLe(&v, sizeof v);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (failed_ || n > remaining()) {
      fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_), static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  bool read(void* dst, std::size_t n) { return take(dst, n); }

  /// Reads an element count for a sequence whose elements occupy at least
  /// \p minBytesPerElem bytes each. Fails (and returns 0) when the count
  /// could not possibly fit in the remaining input — the guard that keeps a
  /// corrupt length from triggering a multi-gigabyte allocation.
  std::uint64_t count(std::size_t minBytesPerElem) {
    const std::uint64_t n = u64();
    if (failed_) return 0;
    const std::size_t per = minBytesPerElem == 0 ? 1 : minBytesPerElem;
    if (n > remaining() / per) {
      fail();
      return 0;
    }
    return n;
  }

  // Codec interface (codec.hpp): reads what BinWriter's writes.
  static constexpr bool kReading = true;
  /// Reads each field by its type.
  template <typename... T>
  void operator()(T&... v) {
    (field(v), ...);
  }
  /// Reads an element count, guarded by count(minBytes), and resizes \p v
  /// to it.
  template <typename V>
  void count(V& v, std::size_t minBytes) {
    v.resize(static_cast<std::size_t>(count(minBytes)));
  }
  /// Reads a u8 into \p e; fails unless it is at most \p last.
  template <typename E>
  void enumU8(E& e, E last) {
    const std::uint8_t v = u8();
    if (check(v <= static_cast<std::uint8_t>(last))) e = static_cast<E>(v);
  }
  /// Fails the stream unless \p cond holds. Returns ok(): a codec stops
  /// before it indexes with a value that failed this or an earlier check.
  bool check(bool cond) {
    if (!cond) fail();
    return ok();
  }
  /// The table a codec reads for an object that keeps it private: a new
  /// one, which the codec installs once the whole payload has passed.
  template <typename T>
  static T table(const T&) {
    return T{};
  }

  /// Marks the stream failed (decoders call this on semantic violations).
  void fail() { failed_ = true; }

  bool ok() const { return !failed_; }
  bool atEnd() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void field(bool& v) { v = b(); }
  void field(std::uint8_t& v) { v = u8(); }
  void field(std::int32_t& v) { v = i32(); }
  void field(std::uint32_t& v) { v = u32(); }
  void field(std::int64_t& v) { v = i64(); }
  void field(std::uint64_t& v) { v = u64(); }
  void field(double& v) { v = f64(); }
  void field(std::string& v) { v = str(); }

  bool take(void* dst, std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      std::memset(dst, 0, n);
      return false;
    }
    std::memcpy(dst, p_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool takeLe(void* dst, std::size_t n) {
    if (!take(dst, n)) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    auto* b = static_cast<unsigned char*>(dst);
    for (std::size_t i = 0; i < n / 2; ++i) {
      const unsigned char t = b[i];
      b[i] = b[n - 1 - i];
      b[n - 1 - i] = t;
    }
#endif
    return true;
  }

  const std::uint8_t* p_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace m3d::db
