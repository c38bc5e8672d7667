// E1 — Normal-case latency micro-benchmarks (thesis Tables in Section 8.3.1).
//
// Operations a/b: argument of a KB, result of b KB. Rows reproduce the paper's comparison of
// BFT (MACs, with read-only and tentative-execution optimizations), BFT-PK (signatures), and
// an unreplicated server (NO-REP).
#include "bench/bench_util.h"

using namespace bft;

namespace {

struct OpShape {
  const char* name;
  size_t arg;
  size_t result;
};

SimTime RunOne(AuthMode mode, const OpShape& shape, bool read_only) {
  ClusterOptions options = BenchOptions(mode == AuthMode::kMac ? 100 : 200);
  options.config.auth_mode = mode;
  if (mode == AuthMode::kSignature) {
    ScaleTimersForSignatures(&options.config);
  }
  Cluster cluster(options, NullFactory());
  Bytes op = NullService::MakeOp(read_only, shape.arg, shape.result);
  return MeasureLatency(&cluster, op, read_only, 15);
}

}  // namespace

int main() {
  PrintHeader("E1", "latency of 0/0, 4/0, 0/4 operations (read-write and read-only)");

  const OpShape kShapes[] = {{"0/0", 0, 8}, {"4/0", 4096, 8}, {"0/4", 8, 4096}};
  PerfModel model;

  std::printf("%-6s %14s %14s %14s %18s %12s\n", "op", "BFT r/w (us)", "BFT r/o (us)",
              "BFT-PK r/w (us)", "unreplicated (us)", "PK/MAC");
  for (const OpShape& shape : kShapes) {
    SimTime mac_rw = RunOne(AuthMode::kMac, shape, false);
    SimTime mac_ro = RunOne(AuthMode::kMac, shape, true);
    SimTime pk_rw = RunOne(AuthMode::kSignature, shape, false);
    SimTime norep = UnreplicatedLatency(model, shape.arg, shape.result);
    std::printf("%-6s %14.0f %14.0f %14.0f %18.0f %11.1fx\n", shape.name, ToUs(mac_rw),
                ToUs(mac_ro), ToUs(pk_rw), ToUs(norep),
                mac_rw > 0 ? static_cast<double>(pk_rw) / static_cast<double>(mac_rw) : 0.0);
  }

  std::printf("\npaper shape checks:\n");
  std::printf("  - BFT-PK is one to two orders of magnitude slower than BFT (signatures\n");
  std::printf("    dominate; the paper's central result)\n");
  std::printf("  - read-only is roughly half the read-write latency for small ops\n");
  std::printf("  - replication overhead vs the unreplicated server is a small multiple,\n");
  std::printf("    not orders of magnitude\n");
  return 0;
}
