#include "common/log.hpp"

#include <cstdio>

namespace sgfs {

namespace {
const char* level_name(LogLevel level) {
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
}  // namespace

void log_write(LogLevel level, const std::string& component,
               const std::string& message) {
  std::fprintf(stderr, "[%-5s] %s: %s\n", level_name(level), component.c_str(),
               message.c_str());
}

}  // namespace sgfs
