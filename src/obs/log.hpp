#pragma once

/// \file log.hpp
/// Leveled, thread-safe structured logging for the whole library.
///
/// Usage:
///   M3D_LOG(info) << "route: wl_m=" << wl << " f2f=" << bumps;
///
/// The stream expression on the right-hand side is only evaluated when the
/// message's level passes the global filter, so logging below the active
/// level costs one branch. Records go to a configurable text sink (stderr by
/// default -- flow stdout stays byte-identical to a build without logging).
///
/// The level is resolved in this order:
///   1. the M3D_LOG_LEVEL environment variable
///      (off|error|warn|info|debug|trace), read once lazily;
///   2. setLogLevel() / configureLogging();
///   3. the default, kWarn.

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace m3d::obs {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

const char* logLevelName(LogLevel level);

/// Parses "off"/"error"/"warn"/"info"/"debug"/"trace" (case-insensitive).
std::optional<LogLevel> parseLogLevel(std::string_view text);

/// Current global level. Reads M3D_LOG_LEVEL once on first use.
LogLevel logLevel();
void setLogLevel(LogLevel level);

/// True when a record at \p level would be emitted.
bool logEnabled(LogLevel level);

/// Re-reads M3D_LOG_LEVEL and applies it if set (test hook; normal code
/// never needs this -- the first logLevel() call does it).
void initLogLevelFromEnv();

/// Applies \p requested unless M3D_LOG_LEVEL is set (the environment always
/// wins so a user can override a hard-coded FlowOptions level). Passing
/// nullopt keeps the current level.
void configureLogging(std::optional<LogLevel> requested);

/// Redirects the human-readable sink (default: stderr). nullptr disables
/// text output entirely. The pointee must outlive all logging.
void setLogTextSink(std::ostream* os);

/// One in-flight log record; emits on destruction. Use via M3D_LOG.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  std::ostream& stream() { return ss_; }

 private:
  LogLevel level_;
  std::ostringstream ss_;
};

// Severity tokens for the M3D_LOG(sev) macro.
inline constexpr LogLevel kLogSev_trace = LogLevel::kTrace;
inline constexpr LogLevel kLogSev_debug = LogLevel::kDebug;
inline constexpr LogLevel kLogSev_info = LogLevel::kInfo;
inline constexpr LogLevel kLogSev_warn = LogLevel::kWarn;
inline constexpr LogLevel kLogSev_error = LogLevel::kError;

}  // namespace m3d::obs

/// M3D_LOG(info) << ...; -- the right-hand side is skipped entirely when the
/// level is filtered out.
#define M3D_LOG(sev)                                                              \
  for (bool m3d_log_once = ::m3d::obs::logEnabled(::m3d::obs::kLogSev_##sev);     \
       m3d_log_once; m3d_log_once = false)                                        \
  ::m3d::obs::LogMessage(::m3d::obs::kLogSev_##sev).stream()
