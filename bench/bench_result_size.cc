// E3 — Latency vs result size (thesis Fig 8-2 family): operations 0/b for growing b, with and
// without the digest-replies optimization (Section 5.1.1).
#include "bench/bench_util.h"

using namespace bft;

namespace {
SimTime RunOne(size_t result, bool digest_replies) {
  ClusterOptions options = BenchOptions(400 + result);
  options.config.digest_replies = digest_replies;
  Cluster cluster(options, NullFactory());
  return MeasureLatency(&cluster, NullService::MakeOp(false, 8, result), false, 12);
}
}  // namespace

int main() {
  PrintHeader("E3", "read-write latency vs result size (0/b operations)");
  std::printf("%-10s %22s %22s %10s\n", "result (B)", "digest replies (us)",
              "full replies (us)", "gain");
  for (size_t result : {0u, 256u, 1024u, 2048u, 4096u, 8192u}) {
    SimTime with = RunOne(result, true);
    SimTime without = RunOne(result, false);
    std::printf("%-10zu %22.0f %22.0f %9.2fx\n", result, ToUs(with), ToUs(without),
                with > 0 ? static_cast<double>(without) / static_cast<double>(with) : 0.0);
  }
  std::printf("\npaper shape checks:\n");
  std::printf("  - with digest replies only one replica sends the full result, so latency\n");
  std::printf("    grows with b once, not n times; the gap widens with b\n");
  return 0;
}
