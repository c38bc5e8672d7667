// E4 — Throughput vs number of clients (thesis Section 8.3.2, Figs 8-4..8-6): closed-loop
// clients issuing 0/0 read-write, 0/0 read-only, and 4/0 read-write operations, with request
// batching amortizing protocol cost under load.
#include "bench/bench_util.h"

using namespace bft;

namespace {
double RunOne(size_t clients, size_t arg, bool read_only) {
  ClusterOptions options = BenchOptions(500 + clients + arg);
  Cluster cluster(options, NullFactory());
  ClosedLoopLoad load(
      &cluster, clients,
      [arg, read_only](size_t, uint64_t) { return NullService::MakeOp(read_only, arg, 8); },
      read_only);
  ClosedLoopLoad::Result r = load.Run(/*warmup=*/kSecond, /*duration=*/4 * kSecond);
  return r.ops_per_second;
}
}  // namespace

int main() {
  PrintHeader("E4", "throughput vs number of clients (0/0 r-w, 0/0 r-o, 4/0 r-w)");
  std::printf("%-10s %16s %16s %16s\n", "clients", "0/0 rw (op/s)", "0/0 ro (op/s)",
              "4/0 rw (op/s)");
  for (size_t clients : {1u, 2u, 5u, 10u, 20u, 50u}) {
    double rw = RunOne(clients, 0, false);
    double ro = RunOne(clients, 0, true);
    double big = RunOne(clients, 4096, false);
    std::printf("%-10zu %16.0f %16.0f %16.0f\n", clients, rw, ro, big);
  }
  std::printf("\npaper shape checks:\n");
  std::printf("  - read-write throughput rises with clients as batching kicks in, then\n");
  std::printf("    saturates on the bottleneck replica's CPU\n");
  std::printf("  - read-only throughput is higher at low client counts (single round\n");
  std::printf("    trip, no serialization through the primary)\n");
  std::printf("  - 4/0 throughput is lower (per-op digest and wire costs)\n");
  return 0;
}
