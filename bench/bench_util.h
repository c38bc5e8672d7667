// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure of the thesis's Chapter 8 evaluation and
// prints it in a paper-style layout. Metrics are *simulated time*, driven by the Chapter-7
// cost model in src/model/, so they move only when the protocol or the model changes: stdout
// is a pure function of the seed, and CI diffs it against bench/expected/<bench>.txt.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <optional>

#include "src/service/null_service.h"
#include "src/workload/closed_loop.h"
#include "src/workload/cluster.h"

namespace bft {

inline ClusterOptions BenchOptions(uint64_t seed = 1000) {
  ClusterOptions options;
  options.seed = seed;
  options.config.n = 4;
  options.config.checkpoint_period = 128;
  options.config.log_size = 256;
  options.config.state_pages = 64;
  options.config.partition_branching = 16;
  return options;
}

inline ServiceFactory NullFactory() {
  return [](NodeId) { return std::make_unique<NullService>(); };
}

// Signature-mode runs need timers scaled to signature costs: every multicast costs a ~29 ms
// signature, so a 20 ms status interval alone would saturate the CPU, and sub-second fault
// timeouts would mistake slow crypto for a faulty primary.
inline void ScaleTimersForSignatures(ReplicaConfig* config) {
  config->view_change_timeout = 5 * kSecond;
  config->client_retry_timeout = 10 * kSecond;
  config->status_interval = 2 * kSecond;
}

// Mean latency (simulated ns) of `ops` sequential operations issued by one client.
inline SimTime MeasureLatency(Cluster* cluster, Bytes op, bool read_only, int ops = 20,
                              SimTime timeout = 120 * kSecond) {
  Client* client = cluster->AddClient();
  // Warmup: one op to populate caches/keys.
  cluster->Execute(client, op, read_only, timeout);
  SimTime total = 0;
  int done = 0;
  for (int i = 0; i < ops; ++i) {
    std::optional<Bytes> r = cluster->Execute(client, op, read_only, timeout);
    if (r.has_value()) {
      total += client->stats().last_latency;
      ++done;
    }
  }
  return done > 0 ? total / static_cast<SimTime>(done) : 0;
}

// Latency of one operation against a single *unreplicated* simulated server with the same
// network/CPU cost model (the paper's NO-REP baseline).
inline SimTime UnreplicatedLatency(const PerfModel& model, size_t arg_bytes,
                                   size_t result_bytes, SimTime exec_cost = kMicrosecond) {
  size_t req = 40 + arg_bytes;
  size_t reply = 40 + result_bytes;
  return model.net.SendCpuCost(req) + model.net.WireLatency(req) + model.net.jitter_ns / 2 +
         model.net.RecvCpuCost(req) + exec_cost + model.net.SendCpuCost(reply) +
         model.net.WireLatency(reply) + model.net.jitter_ns / 2 + model.net.RecvCpuCost(reply);
}

inline double ToUs(SimTime t) { return static_cast<double>(t) / kMicrosecond; }
inline double ToMs(SimTime t) { return static_cast<double>(t) / kMillisecond; }

inline void PrintHeader(const char* exp_id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", exp_id, title);
  std::printf("(simulated time; shapes comparable to the paper, not absolutes)\n");
  std::printf("================================================================\n");
}

}  // namespace bft

#endif  // BENCH_BENCH_UTIL_H_
