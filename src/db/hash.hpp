#pragma once

/// \file hash.hpp
/// Content hashing for the design database and the stage cache.
///
///  - contentHash64: XXH64 (seed 0) over a byte range. Every bulk hash goes
///    through it: section and table hashes of the container, the encoded-
///    state hashes of codec.hpp, checkpoint and artifact identities. It
///    reads eight bytes per step on four independent lanes, so it runs at
///    memory speed where a byte-serial hash would dominate checkpoint I/O.
///  - HashStream: a typed incremental FNV-1a hasher used to build stage-
///    cache keys from tens of bytes of heterogeneous option fields.
///
/// Dependency-free by design (the repo bakes in no hashing library) and
/// stable across platforms: multi-byte values are read and folded in
/// little-endian order, so a hash computed on one machine matches any other.

#include <cstdint>
#include <cstring>
#include <string_view>

namespace m3d::db {

namespace detail {

/// Little-endian load of a 32- or 64-bit word from unaligned memory.
template <typename T>
inline T loadLe(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  if constexpr (sizeof v == 8) {
    v = __builtin_bswap64(v);
  } else {
    v = __builtin_bswap32(v);
  }
#endif
  return v;
}

inline constexpr std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline constexpr std::uint64_t kXxP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t xxRound(std::uint64_t acc, std::uint64_t input) {
  return rotl64(acc + input * kXxP2, 31) * kXxP1;
}

inline std::uint64_t xxMerge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxRound(0, lane)) * kXxP1 + kXxP4;
}

}  // namespace detail

/// XXH64 with seed 0 over \p n bytes: the content hash of every checkpoint
/// section, table and encoded design object.
inline std::uint64_t contentHash64(const void* data, std::size_t n) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kXxP1 + kXxP2, v2 = kXxP2, v3 = 0, v4 = 0 - kXxP1;
    for (; end - p >= 32; p += 32) {
      v1 = xxRound(v1, loadLe<std::uint64_t>(p));
      v2 = xxRound(v2, loadLe<std::uint64_t>(p + 8));
      v3 = xxRound(v3, loadLe<std::uint64_t>(p + 16));
      v4 = xxRound(v4, loadLe<std::uint64_t>(p + 24));
    }
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xxMerge(xxMerge(xxMerge(xxMerge(h, v1), v2), v3), v4);
  } else {
    h = kXxP5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h = rotl64(h ^ xxRound(0, loadLe<std::uint64_t>(p)), 27) * kXxP1 + kXxP4;
  }
  if (end - p >= 4) {
    h = rotl64(h ^ loadLe<std::uint32_t>(p) * kXxP1, 23) * kXxP2 + kXxP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl64(h ^ *p * kXxP5, 11) * kXxP1;
  h = (h ^ (h >> 33)) * kXxP2;
  h = (h ^ (h >> 29)) * kXxP3;
  return h ^ (h >> 32);
}

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over \p n bytes, continuing from \p seed (chainable). Byte-serial:
/// use it for key streams only, contentHash64 for anything bulk.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t seed = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// Incremental typed hasher. Strings are length-prefixed and every scalar
/// is tagged with its width, so field boundaries cannot alias ("ab"+"c"
/// hashes differently from "a"+"bc").
class HashStream {
 public:
  void bytes(const void* data, std::size_t n) { h_ = fnv1a64(data, n, h_); }

  void u8(std::uint8_t v) { fixed(&v, sizeof v); }
  void u32(std::uint32_t v) { fixed(&v, sizeof v); }
  void u64(std::uint64_t v) { fixed(&v, sizeof v); }
  void i32(std::int32_t v) { fixed(&v, sizeof v); }
  void i64(std::int64_t v) { fixed(&v, sizeof v); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Doubles are hashed by bit pattern: two values contribute identically
  /// iff they are bitwise identical (matches the bit-identity contract of
  /// the deterministic flows).
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fixed(&bits, sizeof bits);
  }
  void str(std::string_view s) {
    u64(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  /// Folds a scalar in little-endian byte order regardless of host
  /// endianness, with a leading width tag.
  void fixed(const void* data, std::size_t n) {
    unsigned char le[8];
    std::memcpy(le, data, n);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    for (std::size_t i = 0; i < n / 2; ++i) {
      const unsigned char t = le[i];
      le[i] = le[n - 1 - i];
      le[n - 1 - i] = t;
    }
#endif
    const auto tag = static_cast<unsigned char>(n);
    h_ = fnv1a64(&tag, 1, h_);
    h_ = fnv1a64(le, n, h_);
  }

  std::uint64_t h_ = kFnvOffsetBasis;
};

}  // namespace m3d::db
