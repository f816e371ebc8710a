#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace m3d::obs {

// --- Writer ----------------------------------------------------------------

void JsonWriter::escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void JsonWriter::newlineIndent() {
  if (!pretty_) return;
  os_ << "\n";
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::beforeValue() {
  if (keyPending_) {
    keyPending_ = false;
    return;  // comma/indent already handled by key()
  }
  if (!stack_.empty()) {
    if (!first_.back()) os_ << ",";
    first_.back() = false;
    if (stack_.back() == 'A') newlineIndent();
  }
}

void JsonWriter::beginObject() {
  beforeValue();
  os_ << "{";
  stack_.push_back('O');
  first_.push_back(true);
}

void JsonWriter::endObject() {
  stack_.pop_back();
  const bool wasEmpty = first_.back();
  first_.pop_back();
  if (!wasEmpty) newlineIndent();
  os_ << "}";
}

void JsonWriter::beginArray() {
  beforeValue();
  os_ << "[";
  stack_.push_back('A');
  first_.push_back(true);
}

void JsonWriter::endArray() {
  stack_.pop_back();
  const bool wasEmpty = first_.back();
  first_.pop_back();
  if (!wasEmpty) newlineIndent();
  os_ << "]";
}

void JsonWriter::key(std::string_view k) {
  if (!first_.back()) os_ << ",";
  first_.back() = false;
  newlineIndent();
  os_ << "\"";
  escape(os_, k);
  os_ << "\":";
  if (pretty_) os_ << " ";
  keyPending_ = true;
}

void JsonWriter::value(std::string_view v) {
  beforeValue();
  os_ << "\"";
  escape(os_, v);
  os_ << "\"";
}

void JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no Inf/NaN
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  os_ << buf;
}

void JsonWriter::value(std::int64_t v) {
  beforeValue();
  os_ << v;
}

void JsonWriter::value(bool v) {
  beforeValue();
  os_ << (v ? "true" : "false");
}

void JsonWriter::valueNull() {
  beforeValue();
  os_ << "null";
}

// --- Parser ----------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view k) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [key, v] : obj) {
    if (key == k) return &v;
  }
  return nullptr;
}

double JsonValue::numberOr(std::string_view k, double fallback) const {
  const JsonValue* v = find(k);
  return v != nullptr && v->isNumber() ? v->number : fallback;
}

namespace {

/// Deepest array/object nesting parseJson accepts. The parser recurses once
/// per level, so without a cap a long run of '[' (say, one hostile request
/// line to m3d_serve) overflows the stack. Every document this repository
/// writes nests a handful of levels deep.
constexpr int kMaxJsonDepth = 512;

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : s_(text), err_(err) {}

  std::optional<JsonValue> run() {
    skipWs();
    JsonValue v;
    if (!parseValue(v)) return std::nullopt;
    skipWs();
    if (pos_ != s_.size()) {
      fail("trailing characters");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const char* what) {
    if (err_ != nullptr && err_->empty()) {
      *err_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
  }

  void skipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue& out) {
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxJsonDepth) {
        fail("nesting too deep");
        return false;
      }
      ++depth_;
      const bool ok = c == '{' ? parseObject(out) : parseArray(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parseString(out.str);
    }
    if (c == 't' || c == 'f') return parseKeyword(out);
    if (c == 'n') return parseKeyword(out);
    return parseNumber(out);
  }

  bool parseObject(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skipWs();
    if (consume('}')) return true;
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (!consume(':')) {
        fail("expected ':'");
        return false;
      }
      skipWs();
      JsonValue v;
      if (!parseValue(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) return true;
      fail("expected ',' or '}'");
      return false;
    }
  }

  bool parseArray(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skipWs();
    if (consume(']')) return true;
    while (true) {
      skipWs();
      JsonValue v;
      if (!parseValue(v)) return false;
      out.arr.push_back(std::move(v));
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) return true;
      fail("expected ',' or ']'");
      return false;
    }
  }

  bool parseString(std::string& out) {
    if (!consume('"')) {
      fail("expected string");
      return false;
    }
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) {
              fail("bad \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad \\u escape");
                return false;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported --
            // the writer never emits them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail("bad escape");
            return false;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parseKeyword(JsonValue& out) {
    auto match = [&](std::string_view kw) {
      if (s_.substr(pos_, kw.size()) == kw) {
        pos_ += kw.size();
        return true;
      }
      return false;
    };
    if (match("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.type = JsonValue::Type::kNull;
      return true;
    }
    fail("unknown keyword");
    return false;
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      // Signs are only valid right after an exponent marker.
      if ((s_[pos_] == '-' || s_[pos_] == '+') && pos_ > start &&
          s_[pos_ - 1] != 'e' && s_[pos_ - 1] != 'E') {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected value");
      return false;
    }
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("bad number");
      return false;
    }
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* err_;
};

}  // namespace

std::optional<JsonValue> parseJson(std::string_view text, std::string* err) {
  return Parser(text, err).run();
}

}  // namespace m3d::obs
