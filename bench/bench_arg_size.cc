// E2 — Latency vs argument size (thesis Fig 8-1 family): operations a/0 for growing a, with
// and without the separate-request-transmission optimization (Section 5.1.5).
#include "bench/bench_util.h"

using namespace bft;

namespace {
SimTime RunOne(size_t arg, bool separate_transmission) {
  ClusterOptions options = BenchOptions(300 + arg);
  if (!separate_transmission) {
    options.config.separate_transmission_threshold = 1 << 30;  // always inline
  }
  Cluster cluster(options, NullFactory());
  return MeasureLatency(&cluster, NullService::MakeOp(false, arg, 8), false, 12);
}
}  // namespace

int main() {
  PrintHeader("E2", "read-write latency vs argument size (a/0 operations)");
  std::printf("%-10s %22s %22s %10s\n", "arg (B)", "separate xmit (us)", "inline only (us)",
              "gain");
  for (size_t arg : {0u, 256u, 1024u, 2048u, 4096u, 8192u}) {
    SimTime with = RunOne(arg, true);
    SimTime without = RunOne(arg, false);
    std::printf("%-10zu %22.0f %22.0f %9.2fx\n", arg, ToUs(with), ToUs(without),
                with > 0 ? static_cast<double>(without) / static_cast<double>(with) : 0.0);
  }
  std::printf("\npaper shape checks:\n");
  std::printf("  - latency grows roughly linearly with argument size\n");
  std::printf("  - separate transmission reduces the slope for large arguments (the\n");
  std::printf("    argument crosses the network once, not twice)\n");
  return 0;
}
