// Leveled logging with a pluggable sink.
//
// GPU-PF uses this to emit the refresh/execution traces shown in the
// dissertation's Appendix G. The default sink writes to stderr; tests install
// a capturing sink.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace kspec {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

const char* LogLevelName(LogLevel level);

using LogSink = std::function<void(LogLevel, const std::string&)>;

// Global log configuration, safe to change while other threads log. The
// level is a relaxed atomic (a racing message may use the old or the new
// level); the sink runs under a mutex, so lines never interleave and a sink
// replaced by set_sink is never called after set_sink returns.
class Logger {
 public:
  static Logger& Instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  // Replaces the sink; returns the previous one so tests can restore it.
  LogSink set_sink(LogSink sink);

  void Write(LogLevel level, const std::string& msg);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex sink_mu_;  // guards sink_ and serializes its calls
  LogSink sink_;
};

namespace detail {
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Instance().Write(level_, stream_.str()); }
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace kspec

#define KSPEC_LOG(lvl_)                                                                  \
  if (static_cast<int>(lvl_) < static_cast<int>(::kspec::Logger::Instance().level())) \
    ;                                                                                  \
  else                                                                                 \
    ::kspec::detail::LogMessage(lvl_).stream()

#define KSPEC_LOG_INFO KSPEC_LOG(::kspec::LogLevel::kInfo)
#define KSPEC_LOG_DEBUG KSPEC_LOG(::kspec::LogLevel::kDebug)
#define KSPEC_LOG_WARN KSPEC_LOG(::kspec::LogLevel::kWarn)
