// Minimal leveled logging to stderr. Off by default so benchmarks stay quiet; bft_node raises
// it to Info for its slow-request log (--slow-ms).
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace bft {

enum class LogLevel : int {
  kNone = 0,
  kError = 1,
  kInfo = 2,
};

LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);
// Thread-safe: the line is composed and written with a single write, so lines from
// concurrent event-loop threads never interleave.
void LogLine(LogLevel level, const std::string& line);
// Tags every LogLine from the calling thread with `prefix` (e.g. "n2" for replica 2's loop
// thread). Empty — the default, and the single-threaded simulator — keeps the bare format.
void SetThreadLogPrefix(std::string prefix);

}  // namespace bft

#define BFT_LOG(level, stream_expr)                            \
  do {                                                         \
    if (static_cast<int>(::bft::GetLogLevel()) >=              \
        static_cast<int>(::bft::LogLevel::level)) {            \
      std::ostringstream bft_log_oss;                          \
      bft_log_oss << stream_expr;                              \
      ::bft::LogLine(::bft::LogLevel::level, bft_log_oss.str()); \
    }                                                          \
  } while (0)

#define BFT_INFO(stream_expr) BFT_LOG(kInfo, stream_expr)
#define BFT_ERROR(stream_expr) BFT_LOG(kError, stream_expr)

#endif  // SRC_COMMON_LOGGING_H_
