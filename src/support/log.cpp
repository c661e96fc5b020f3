#include "support/log.hpp"

#include <cstdio>

namespace kspec {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger& Logger::Instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() {
  sink_ = [](LogLevel level, const std::string& msg) {
    std::fprintf(stderr, "[%s] %s\n", LogLevelName(level), msg.c_str());
  };
}

LogSink Logger::set_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  LogSink old = std::move(sink_);
  sink_ = std::move(sink);
  return old;
}

void Logger::Write(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(this->level())) return;
  std::lock_guard<std::mutex> lock(sink_mu_);
  if (sink_) sink_(level, msg);
}

}  // namespace kspec
