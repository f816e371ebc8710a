#include "obs/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>

#include "obs/trace.hpp"

namespace m3d::obs {

namespace {

std::atomic<int> gLevel{static_cast<int>(LogLevel::kWarn)};
std::once_flag gEnvOnce;

// The sink is guarded by one mutex: records from concurrent threads never
// interleave mid-line.
std::mutex gSinkMu;
std::ostream* gTextSink = &std::cerr;

void readEnvLevel() {
  const char* v = std::getenv("M3D_LOG_LEVEL");
  if (v == nullptr) return;
  if (const auto parsed = parseLogLevel(v)) {
    gLevel.store(static_cast<int>(*parsed), std::memory_order_relaxed);
  } else {
    // Malformed levels keep the compiled-in default rather than silently
    // muting or flooding logs; stderr directly since this runs during the
    // logger's own initialization.
    std::fprintf(stderr,
                 "[m3d:warn] ignoring invalid M3D_LOG_LEVEL='%s' "
                 "(expected trace|debug|info|warn|error|off); keeping '%s'\n",
                 v, logLevelName(static_cast<LogLevel>(gLevel.load(std::memory_order_relaxed))));
  }
}

}  // namespace

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

std::optional<LogLevel> parseLogLevel(std::string_view text) {
  std::string s;
  s.reserve(text.size());
  for (char c : text) s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (s == "trace") return LogLevel::kTrace;
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn" || s == "warning") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off" || s == "none" || s == "quiet") return LogLevel::kOff;
  return std::nullopt;
}

LogLevel logLevel() {
  std::call_once(gEnvOnce, readEnvLevel);
  return static_cast<LogLevel>(gLevel.load(std::memory_order_relaxed));
}

void setLogLevel(LogLevel level) {
  std::call_once(gEnvOnce, readEnvLevel);
  gLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool logEnabled(LogLevel level) { return level >= logLevel() && level != LogLevel::kOff; }

void initLogLevelFromEnv() {
  std::call_once(gEnvOnce, [] {});  // consume the lazy init
  readEnvLevel();
}

void configureLogging(std::optional<LogLevel> requested) {
  std::call_once(gEnvOnce, readEnvLevel);
  if (std::getenv("M3D_LOG_LEVEL") != nullptr) return;  // environment wins
  if (requested) gLevel.store(static_cast<int>(*requested), std::memory_order_relaxed);
}

void setLogTextSink(std::ostream* os) {
  std::lock_guard<std::mutex> lock(gSinkMu);
  gTextSink = os;
}

LogMessage::~LogMessage() {
  const std::string msg = ss_.str();
  const std::string phase = Tracer::local().currentPath();

  std::lock_guard<std::mutex> lock(gSinkMu);
  if (gTextSink != nullptr) {
    *gTextSink << "[m3d:" << logLevelName(level_) << "]";
    if (!phase.empty()) *gTextSink << " [" << phase << "]";
    *gTextSink << " " << msg << "\n";
    gTextSink->flush();
  }
}

}  // namespace m3d::obs
