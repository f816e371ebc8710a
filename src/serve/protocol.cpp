#include "serve/protocol.hpp"

#include <functional>
#include <sstream>
#include <type_traits>

#include "db/hash.hpp"

namespace m3d::serve {

namespace {

/// Lenient typed field readers, overloaded on the destination type: absent
/// keys keep the caller's default, wrong-typed keys fail with a diagnostic
/// naming the key. Unknown keys are ignored so older clients can talk to
/// newer daemons.
template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
           !std::is_same_v<T, std::uint64_t>)
bool readField(const obs::JsonValue& v, const char* key, T* dst, std::string* err) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) return true;
  if (!f->isNumber()) {
    if (err != nullptr) *err = std::string(key) + " must be a number";
    return false;
  }
  *dst = static_cast<T>(f->number);
  return true;
}

bool readField(const obs::JsonValue& v, const char* key, bool* dst, std::string* err) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) return true;
  if (f->type != obs::JsonValue::Type::kBool) {
    if (err != nullptr) *err = std::string(key) + " must be a boolean";
    return false;
  }
  *dst = f->boolean;
  return true;
}

bool readField(const obs::JsonValue& v, const char* key, std::string* dst, std::string* err) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) return true;
  if (!f->isString()) {
    if (err != nullptr) *err = std::string(key) + " must be a string";
    return false;
  }
  *dst = f->str;
  return true;
}

/// A JobKind crosses the wire as its name; absent keeps the default.
bool readField(const obs::JsonValue& v, const char* key, JobKind* dst, std::string* err) {
  std::string name = jobKindName(*dst);
  if (!readField(v, key, &name, err)) return false;
  if (name == "flow") {
    *dst = JobKind::kFlow;
  } else if (name == "eco") {
    *dst = JobKind::kEco;
  } else {
    if (err != nullptr) *err = "unknown job kind '" + name + "'";
    return false;
  }
  return true;
}

/// A 64-bit hash crosses the wire as hex (see protocol.hpp); absent or
/// empty keeps the default.
bool readField(const obs::JsonValue& v, const char* key, std::uint64_t* dst, std::string* err) {
  std::string hex;
  if (!readField(v, key, &hex, err)) return false;
  if (!hex.empty() && !hexToHash(hex, dst)) {
    if (err != nullptr) *err = std::string(key) + " is not a 64-bit hex string";
    return false;
  }
  return true;
}

/// Writes one wire field: a JobKind as its name, a 64-bit hash as hex, any
/// other value as it is.
template <typename T>
void writeField(obs::JsonWriter& w, const char* key, const T& v) {
  w.key(key);
  if constexpr (std::is_same_v<T, JobKind>) {
    w.value(jobKindName(v));
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.value(hashToHex(v));
  } else {
    w.value(v);
  }
}

/// The JobSpec wire fields and their keys, in wire order. \p S is JobSpec
/// or const JobSpec. Drives writeJson and fromJson, so a new field is added
/// here once.
template <typename S, typename F>
void forEachSpecField(S& s, F&& field) {
  field("kind", s.kind);
  field("flow", s.flow);
  field("tile", s.tile);
  field("shrink", s.shrink);
  field("threads", s.threads);
  field("priority", s.priority);
  field("max_freq_rounds", s.maxFreqRounds);
  field("opt_max_passes", s.optMaxPasses);
  field("signoff", s.signoff);
  field("resume", s.resume);
  field("macro_die_metals", s.macroDieMetals);
  field("f2f_pitch_scale", s.f2fPitchScale);
  field("place_engine", s.placeEngine);
  field("label", s.label);
}

/// The JobResult wire fields after "metrics" (an object of its own), in
/// wire order, as forEachSpecField is for JobSpec.
template <typename R, typename F>
void forEachResultField(R& r, F&& field) {
  field("cache_prefix_stages", r.cachePrefixStages);
  field("eco_ripped", r.ecoRipped);
  field("eco_reused", r.ecoReused);
  field("coalesced", r.coalesced);
  field("artifact_hash", r.artifactHash);
  field("artifact_source", r.artifactSource);
  field("wall_ms", r.wallMs);
  field("final_checkpoint", r.finalCheckpoint);
}

bool validFlowName(const std::string& f) {
  return f == "macro3d" || f == "2d" || f == "s2d" || f == "bf_s2d" || f == "c2d";
}

bool validTileName(const std::string& t) {
  return t == "small" || t == "large" || t == "tiny";
}

}  // namespace

const char* jobKindName(JobKind k) {
  switch (k) {
    case JobKind::kFlow: return "flow";
    case JobKind::kEco: return "eco";
  }
  return "?";
}

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool jobStateTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed || s == JobState::kCancelled;
}

std::uint64_t JobSpec::baseKey() const {
  // Everything that shapes the place/pre_route_opt/cts prefix, and nothing
  // else: kind, ECO knobs, thread counts, priority, resume and the label
  // stay out so a flow job and the pitch-ECO jobs derived from it coalesce.
  db::HashStream hs;
  hs.str("m3d.serve.base/1");
  hs.str(flow);
  hs.str(tile);
  hs.i32(shrink);
  hs.i32(maxFreqRounds);
  hs.i32(optMaxPasses);
  hs.b(signoff);
  hs.i32(macroDieMetals);
  hs.str(placeEngine);
  return hs.digest();
}

std::string JobSpec::validate() const {
  if (!validFlowName(flow)) return "unknown flow '" + flow + "'";
  if (!validTileName(tile)) return "unknown tile '" + tile + "'";
  if (shrink < 1) return "shrink must be >= 1";
  if (threads < 0) return "threads must be >= 0";
  if (maxFreqRounds < 1) return "max_freq_rounds must be >= 1";
  if (optMaxPasses < 0) return "opt_max_passes must be >= 0";
  if (macroDieMetals != 4 && macroDieMetals != 6) return "macro_die_metals must be 4 or 6";
  if (!(f2fPitchScale > 0.0) || f2fPitchScale > 100.0) {
    return "f2f_pitch_scale must be in (0, 100]";
  }
  if (placeEngine != "b2b" && placeEngine != "analytic") {
    return "unknown place_engine '" + placeEngine + "' (expected 'b2b' or 'analytic')";
  }
  if (kind == JobKind::kEco && flow == "2d") {
    return "eco jobs need an F2F interface; flow '2d' has none";
  }
  return "";
}

void JobSpec::writeJson(obs::JsonWriter& w) const {
  w.beginObject();
  forEachSpecField(*this, [&w](const char* key, const auto& v) { writeField(w, key, v); });
  w.endObject();
}

bool JobSpec::fromJson(const obs::JsonValue& v, JobSpec* out, std::string* err) {
  if (!v.isObject()) {
    if (err != nullptr) *err = "job spec must be an object";
    return false;
  }
  JobSpec spec;
  bool ok = true;
  forEachSpecField(spec, [&](const char* key, auto& field) {
    ok = ok && readField(v, key, &field, err);
  });
  if (!ok) return false;
  const std::string invalid = spec.validate();
  if (!invalid.empty()) {
    if (err != nullptr) *err = invalid;
    return false;
  }
  *out = spec;
  return true;
}

void JobResult::writeJson(obs::JsonWriter& w) const {
  w.beginObject();
  w.key("metrics");
  writeDesignMetricsJson(w, metrics);
  forEachResultField(*this, [&w](const char* key, const auto& v) { writeField(w, key, v); });
  w.endObject();
}

bool JobResult::fromJson(const obs::JsonValue& v, JobResult* out, std::string* err) {
  if (!v.isObject()) {
    if (err != nullptr) *err = "result must be an object";
    return false;
  }
  JobResult r;
  bool ok = true;
  if (const obs::JsonValue* m = v.find("metrics"); m != nullptr && m->isObject()) {
    forEachDesignMetric(r.metrics, [&](const char* key, auto& field) {
      ok = ok && readField(*m, key, &field, err);
    });
  }
  forEachResultField(r, [&](const char* key, auto& field) {
    ok = ok && readField(v, key, &field, err);
  });
  if (!ok) return false;
  *out = r;
  return true;
}

std::string hashToHex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[h & 0xF];
    h >>= 4;
  }
  return s;
}

bool hexToHash(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t h = 0;
  for (char c : s) {
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    h = (h << 4) | static_cast<std::uint64_t>(d);
  }
  *out = h;
  return true;
}

namespace {

std::string oneLine(const std::function<void(obs::JsonWriter&)>& body) {
  std::ostringstream os;
  obs::JsonWriter w(os, /*pretty=*/false);
  body(w);
  return os.str();
}

}  // namespace

std::string encodeOp(const char* op) {
  return oneLine([&](obs::JsonWriter& w) {
    w.beginObject();
    w.kv("op", op);
    w.endObject();
  });
}

std::string encodeSubmit(const JobSpec& spec) {
  return oneLine([&](obs::JsonWriter& w) {
    w.beginObject();
    w.kv("op", "submit");
    w.key("job");
    spec.writeJson(w);
    w.endObject();
  });
}

std::string encodeJobOp(const char* op, std::uint64_t jobId) {
  return oneLine([&](obs::JsonWriter& w) {
    w.beginObject();
    w.kv("op", op);
    w.kv("job_id", static_cast<std::int64_t>(jobId));
    w.endObject();
  });
}

std::string encodeWait(std::uint64_t jobId, int timeoutMs) {
  return oneLine([&](obs::JsonWriter& w) {
    w.beginObject();
    w.kv("op", "wait");
    w.kv("job_id", static_cast<std::int64_t>(jobId));
    w.kv("timeout_ms", timeoutMs);
    w.endObject();
  });
}

std::string encodeError(const std::string& message) {
  return oneLine([&](obs::JsonWriter& w) {
    w.beginObject();
    w.kv("ok", false);
    w.kv("error", std::string_view(message));
    w.endObject();
  });
}

}  // namespace m3d::serve
