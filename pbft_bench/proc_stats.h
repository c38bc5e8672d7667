// CPU time and context switches per thread, read from outside the program.
//
// The event loops of RtCluster are ordinary threads of this process; their tids (learned by
// running gettid() on each loop) index /proc/self/task/<tid>. utime/stime come from `stat`
// in clock ticks — the same accounting /proc/self/stat sums for the whole process, so the
// per-thread sum can be checked against the process total. Ticks are 10 ms, too coarse for
// a lightly loaded thread, so the thread's CPU clock supplies its total at ns resolution and
// the ticks only split it into user and system time. Voluntary context switches are the
// loop's wakeups (it parked and something woke it); involuntary ones are preemptions.
#ifndef PBFT_BENCH_PROC_STATS_H_
#define PBFT_BENCH_PROC_STATS_H_

#include <dirent.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

namespace pbft_bench {

struct CpuTicks {
  uint64_t user = 0;
  uint64_t sys = 0;
  uint64_t cpu_ns = 0;       // user + system time from the thread's CPU clock
  uint64_t voluntary = 0;    // voluntary_ctxt_switches: wakeups after parking
  uint64_t involuntary = 0;  // nonvoluntary_ctxt_switches: preemptions
};

inline bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char buf[4096];
  out->clear();
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// utime and stime from a /proc/.../stat line: fields 14 and 15, counted from the first
// field after the parenthesised command name (which may itself contain spaces).
inline bool ParseStatTimes(const std::string& stat, CpuTicks* out) {
  size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  const char* p = stat.c_str() + close + 2;  // field 3 ("state")
  for (int field = 3; field < 14; ++field) {
    p = std::strchr(p, ' ');
    if (p == nullptr) {
      return false;
    }
    ++p;
  }
  char* end = nullptr;
  out->user = std::strtoull(p, &end, 10);
  out->sys = std::strtoull(end, nullptr, 10);
  return true;
}

inline uint64_t StatusField(const std::string& status, const char* name) {
  size_t at = status.find(name);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(status.c_str() + at + std::strlen(name), nullptr, 10);
}

// The per-thread CPU clock of `tid` (a thread of this process): the clock id encoding of
// the kernel's posix-cpu-timers ABI, the one glibc's pthread_getcpuclockid builds.
inline uint64_t ThreadCpuNs(pid_t tid) {
  clockid_t id = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts;
  if (clock_gettime(id, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// False when the thread has exited.
inline bool ReadThreadTicks(pid_t tid, CpuTicks* out) {
  std::string base = "/proc/self/task/" + std::to_string(tid);
  std::string stat;
  std::string status;
  if (!ReadFile(base + "/stat", &stat) || !ReadFile(base + "/status", &status) ||
      !ParseStatTimes(stat, out)) {
    return false;
  }
  out->cpu_ns = ThreadCpuNs(tid);
  out->voluntary = StatusField(status, "voluntary_ctxt_switches:");
  out->involuntary = StatusField(status, "nonvoluntary_ctxt_switches:");
  return true;
}

// Every live thread of this process.
inline std::map<pid_t, CpuTicks> ReadAllThreads() {
  std::map<pid_t, CpuTicks> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    pid_t tid = static_cast<pid_t>(std::strtol(entry->d_name, nullptr, 10));
    CpuTicks ticks;
    if (ReadThreadTicks(tid, &ticks)) {
      out[tid] = ticks;
    }
  }
  closedir(dir);
  return out;
}

// Whole-process utime+stime in ticks, including threads that have already exited.
inline uint64_t ReadProcessTicks() {
  std::string stat;
  CpuTicks ticks;
  if (!ReadFile("/proc/self/stat", &stat) || !ParseStatTimes(stat, &ticks)) {
    return 0;
  }
  return ticks.user + ticks.sys;
}

// Process CPU time in seconds at nanosecond resolution.
inline double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace pbft_bench

#endif  // PBFT_BENCH_PROC_STATS_H_
