#pragma once

/// \file protocol.hpp
/// Wire protocol of the m3d_serve flow service: line-delimited JSON over a
/// Unix-domain stream socket. Every request is one JSON object on one line
/// (terminated by '\n'); every response is one JSON object on one line.
/// Responses always carry "ok" (bool); failures add "error" (string).
///
/// Requests ("op" selects the verb):
///   {"op":"ping"}
///   {"op":"submit","job":{<JobSpec>}}           -> {"ok":true,"job_id":N}
///   {"op":"status","job_id":N}                  -> {"ok":true,"state":"..",..}
///   {"op":"wait","job_id":N,"timeout_ms":T}     -> status once terminal
///   {"op":"result","job_id":N}                  -> {"ok":true,"result":{..}}
///   {"op":"cancel","job_id":N}                  -> {"ok":true,"state":".."}
///   {"op":"stats"}                              -> server/cache counters
///   {"op":"shutdown"}                           -> {"ok":true} then drain
///
/// JobSpec names a flow run declaratively (the server owns tile generation
/// and FlowOptions construction), so clients stay thin and every job is
/// reproducible from its spec alone. ECO jobs (kind "eco") perturb a base
/// design (today: the F2F bump-pitch knob); jobs sharing a baseKey() are
/// scheduled back-to-back so they share place/pre_route_opt/cts stage-cache
/// prefixes and the base flow job's signoff checkpoint seeds routeDesignEco
/// for the members (coalescing).
///
/// 64-bit hashes cross the wire as 16-digit hex strings: JSON numbers are
/// doubles and would silently lose bits past 2^53.

#include <cstdint>
#include <string>

#include "flows/flow_common.hpp"
#include "obs/json.hpp"

namespace m3d::serve {

/// Protocol/schema version, echoed by ping so mismatched client/daemon
/// builds fail loudly instead of misparsing each other.
inline constexpr int kProtocolVersion = 1;

enum class JobKind { kFlow, kEco };
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* jobKindName(JobKind k);
const char* jobStateName(JobState s);
/// True for states that will never change again.
bool jobStateTerminal(JobState s);

/// Declarative flow-job description (see file comment).
struct JobSpec {
  JobKind kind = JobKind::kFlow;
  std::string flow = "macro3d";  ///< macro3d | 2d | s2d | bf_s2d | c2d
  std::string tile = "small";    ///< small | large | tiny
  int shrink = 1;                ///< divides logic sizes (smoke/test scale)
  int threads = 0;               ///< FlowOptions::numThreads (0 = server default)
  int priority = 0;              ///< higher runs first; FIFO within a priority
  int maxFreqRounds = 4;
  int optMaxPasses = 0;          ///< 0 = OptimizerOptions default
  bool signoff = true;
  bool resume = true;            ///< false forces a cold run (warms the cache)
  int macroDieMetals = 6;
  double f2fPitchScale = 1.0;    ///< ECO knob: scales F2fViaSpec::pitch
  std::string placeEngine = "b2b";  ///< b2b | analytic (PlacerOptions::engine)
  std::string label;             ///< free-form client tag (reports/traces)

  /// Identity of the base design: a hash over every field that shapes the
  /// place/pre_route_opt/cts prefix. ECO knobs (f2fPitchScale), thread
  /// counts, priority, resume and the label are excluded — jobs that differ
  /// only in those share a base design and are coalesced.
  std::uint64_t baseKey() const;

  /// "" when valid, else a diagnostic (unknown flow/tile, bad ranges, an
  /// ECO job on a flow without an F2F interface).
  std::string validate() const;

  void writeJson(obs::JsonWriter& w) const;
  static bool fromJson(const obs::JsonValue& v, JobSpec* out, std::string* err);
};

/// Terminal output of one job, as sent in the "result" response.
struct JobResult {
  DesignMetrics metrics;
  int cachePrefixStages = 0;     ///< pipeline stages restored from the cache
  std::int64_t ecoRipped = -1;   ///< routeDesignEco census (-1 = not ECO-routed)
  std::int64_t ecoReused = -1;
  bool coalesced = false;        ///< ran against a batch leader's seed/prefix
  std::uint64_t artifactHash = 0;  ///< XXH64 of the artifact (see source)
  std::string artifactSource;    ///< "checkpoint" (signoff .m3ddb bytes) or
                                 ///< "metrics" (metrics JSON; cache disabled)
  double wallMs = 0.0;
  std::string finalCheckpoint;   ///< signoff-stage cache path ("" = disabled)

  void writeJson(obs::JsonWriter& w) const;
  static bool fromJson(const obs::JsonValue& v, JobResult* out, std::string* err);
};

/// 64-bit value <-> fixed-width lowercase hex (the wire format of hashes).
std::string hashToHex(std::uint64_t h);
bool hexToHash(const std::string& s, std::uint64_t* out);

/// One-line JSON encoders for the simple requests (client side).
/// encodeOp covers the requests that carry only their verb: ping, stats and
/// shutdown.
std::string encodeOp(const char* op);
std::string encodeSubmit(const JobSpec& spec);
std::string encodeJobOp(const char* op, std::uint64_t jobId);
std::string encodeWait(std::uint64_t jobId, int timeoutMs);

/// One-line error response.
std::string encodeError(const std::string& message);

}  // namespace m3d::serve
