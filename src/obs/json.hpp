#pragma once

/// \file json.hpp
/// Minimal JSON emission and parsing -- no external dependency.
///
/// JsonWriter is a streaming writer with correct escaping, comma handling
/// and optional pretty-printing; it backs the run reports, the flow-service
/// protocol and the bench result dumps. parseJson() is a small recursive-
/// descent parser used by tests and the report smoke check to round-trip
/// what the writer produced (it accepts standard JSON: objects, arrays,
/// strings with the common escapes, numbers, booleans, null).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace m3d::obs {

/// Streaming JSON writer. Calls must describe a well-formed document:
/// begin/end pairs balanced, key() before every value inside an object.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, bool pretty = true) : os_(os), pretty_(pretty) {}

  void beginObject();
  void endObject();
  void beginArray();
  void endArray();
  void key(std::string_view k);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  /// Any other integer width funnels into the int64 overload (kept as a
  /// template so it never collides with int64_t's platform alias).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, std::int64_t>)
  void value(T v) {
    value(static_cast<std::int64_t>(v));
  }
  void value(bool v);
  void valueNull();

  /// key + value in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  static void escape(std::ostream& os, std::string_view s);

 private:
  void beforeValue();
  void newlineIndent();

  std::ostream& os_;
  bool pretty_;
  /// One frame per open container: 'O' object, 'A' array; first_ tracks
  /// whether a comma is due, key_ whether a key was just written.
  std::vector<char> stack_;
  std::vector<bool> first_;
  bool keyPending_ = false;
};

/// Parsed JSON document node.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  ///< insertion order.

  bool isNull() const { return type == Type::kNull; }
  bool isObject() const { return type == Type::kObject; }
  bool isArray() const { return type == Type::kArray; }
  bool isNumber() const { return type == Type::kNumber; }
  bool isString() const { return type == Type::kString; }

  /// Object member lookup (nullptr when absent or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Shorthand: find(key)->number with a default.
  double numberOr(std::string_view key, double fallback) const;
};

/// Parses \p text; returns nullopt and fills \p err on malformed input.
std::optional<JsonValue> parseJson(std::string_view text, std::string* err = nullptr);

}  // namespace m3d::obs
