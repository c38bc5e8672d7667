#include "src/common/logging.h"

#include <atomic>

#include "src/common/thread_annotations.h"

namespace bft {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kNone)};
// Serializes the fwrite below. Formatting happens outside the lock; the critical section is
// one buffered write, so concurrent RtNode loop threads never interleave within a line.
Mutex g_log_mu;
// Per-thread prefix ("n2", "client-1000", ...). RtNode::Loop tags its thread on entry, so
// every line an automaton logs says which node's loop emitted it. Empty (the default, and
// the single-threaded simulator) keeps the historical [L] format.
thread_local std::string t_prefix;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "E";
    case LogLevel::kInfo:
      return "I";
    default:
      return "?";
  }
}
}  // namespace

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void SetThreadLogPrefix(std::string prefix) { t_prefix = std::move(prefix); }

void LogLine(LogLevel level, const std::string& line) {
  std::string full = "[";
  full += LevelName(level);
  if (!t_prefix.empty()) {
    full += ' ';
    full += t_prefix;
  }
  full += "] ";
  full += line;
  full += '\n';
  MutexLock lock(g_log_mu);
  std::fwrite(full.data(), 1, full.size(), stderr);
}

}  // namespace bft
