// Minimal leveled logger.
//
// Only warnings and errors are written (benchmarks must not pay for I/O);
// the level is a compile-time constant, so the other levels cost nothing.
// Not thread-safe by design: the simulation is single-threaded and
// deterministic.
#pragma once

#include <sstream>
#include <string>

namespace sgfs {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

void log_write(LogLevel level, const std::string& component,
               const std::string& message);

namespace detail {
template <typename... Args>
std::string log_format(Args&&... args) {
  std::ostringstream ss;
  (ss << ... << args);
  return ss.str();
}
}  // namespace detail

#define SGFS_LOG(level, component, ...)                                  \
  do {                                                                   \
    if (::sgfs::kLogLevel <= (level)) {                                  \
      ::sgfs::log_write((level), (component),                            \
                        ::sgfs::detail::log_format(__VA_ARGS__));        \
    }                                                                    \
  } while (0)

#define SGFS_TRACE(component, ...) \
  SGFS_LOG(::sgfs::LogLevel::kTrace, component, __VA_ARGS__)
#define SGFS_DEBUG(component, ...) \
  SGFS_LOG(::sgfs::LogLevel::kDebug, component, __VA_ARGS__)
#define SGFS_INFO(component, ...) \
  SGFS_LOG(::sgfs::LogLevel::kInfo, component, __VA_ARGS__)
#define SGFS_WARN(component, ...) \
  SGFS_LOG(::sgfs::LogLevel::kWarn, component, __VA_ARGS__)
#define SGFS_ERROR(component, ...) \
  SGFS_LOG(::sgfs::LogLevel::kError, component, __VA_ARGS__)

}  // namespace sgfs
