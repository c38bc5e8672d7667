// Stands up a real-clock BFT cluster in one process: 3f+1 replicas (default 4) running the
// replicated key-value service, each on its own event-loop thread behind loopback UDP
// sockets, plus closed-loop clients issuing PUT/GET pairs. The smallest end-to-end proof
// that the protocol core runs outside the simulator — real sockets, real clock, real threads.
//
// Usage: bft_node [--replicas N] [--clients C] [--ops K] [--transport udp|inproc] [--seed S]
//                 [--formation] [--admin-port P] [--trace-sample N] [--slow-ms M]
//                 [--metrics-json PATH]
//                 [--fault-drop P] [--fault-delay-us N] [--fault-seed S] [--partition IDS]
//                 [--crash-replica I] [--crash-at-op K] [--restart-at-op J]
//
// Fault injection (the FaultTransport control API, process-level chaos without bft_chaos):
//   --fault-drop P      drop each datagram with probability P on every link
//   --fault-delay-us N  add N microseconds of one-way latency to every datagram
//   --fault-seed S      seed for the deterministic fault schedule (default: derived from --seed)
//   --partition IDS     comma-separated node ids cut off (both directions) from the rest,
//                       e.g. --partition 0 isolates the view-0 primary until view change
//   --crash-replica I   with --crash-at-op K / --restart-at-op J: fail-stop replica I before
//                       op K, restart it (empty state, rejoins via state transfer) before op J
//
// Transport selection:
//   --transport udp|inproc  loopback UDP sockets (default) or the in-process channel.
//   --formation             coalesce same-destination protocol messages into one framed
//                           datagram per event-loop iteration (idle loops flush immediately).
//
// Every flag takes `--name value` or `--name=value`.
//
// Observability:
//   --admin-port P     serve GET /metrics (Prometheus text), /metrics.json, /traces, and
//                      /healthz (per-replica view/checkpoint/transfer state + ok|degraded
//                      verdict) on loopback TCP port P while the workload runs (0 =
//                      kernel-assigned; the bound port is printed at startup).
//   --trace-sample N   stamp every Nth request's phase timeline (1 = all, 0 = off).
//   --slow-ms M        log a traced request slower than M ms end-to-end to stderr (this also
//                      turns on the replicas' Info-level log lines).
//   --metrics-json F   write the final metrics+traces JSON dump to F on exit.
//   SIGUSR1            snapshot on demand: the next loop iteration dumps to --metrics-json
//                      (when given) and prints the Prometheus text to stderr.
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/obs/export.h"
#include "src/runtime/rt_cluster.h"
#include "src/service/kv_service.h"
#include "tools/flags.h"

namespace {

volatile std::sig_atomic_t g_dump_requested = 0;
void OnSigUsr1(int) { g_dump_requested = 1; }

std::vector<bft::NodeId> ParseIdList(const char* csv) {
  std::vector<bft::NodeId> ids;
  for (const char* p = csv; *p != '\0';) {
    char* end = nullptr;
    ids.push_back(static_cast<bft::NodeId>(std::strtoul(p, &end, 10)));
    p = (end != nullptr && *end == ',') ? end + 1 : (end != nullptr ? end : p + std::strlen(p));
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bft;

  RtClusterOptions options;
  options.config.n = static_cast<int>(FlagValue(argc, argv, "--replicas", 4));
  if (options.config.n < 1) {
    std::fprintf(stderr, "bft_node: --replicas must be a positive integer\n");
    return 2;
  }
  options.config.state_pages = 64;
  options.seed = FlagValue(argc, argv, "--seed", 42);
  options.fault_seed = FlagValue(argc, argv, "--fault-seed", 0);
  const char* transport = FlagString(argc, argv, "--transport", "udp");
  options.transport = std::strcmp(transport, "inproc") == 0
                          ? RtClusterOptions::TransportKind::kInProc
                          : RtClusterOptions::TransportKind::kUdp;
  options.formation = FlagPresent(argc, argv, "--formation");
  size_t num_clients = FlagValue(argc, argv, "--clients", 1);
  if (num_clients == 0) {
    num_clients = 1;  // --clients 0 (or unparsable) would divide by zero below
  }
  uint64_t ops = FlagValue(argc, argv, "--ops", 100);
  uint64_t trace_sample = FlagValue(argc, argv, "--trace-sample", 0);
  uint64_t slow_ms = FlagValue(argc, argv, "--slow-ms", 0);
  const char* metrics_json = FlagString(argc, argv, "--metrics-json", "");
  bool serve_admin = FlagString(argc, argv, "--admin-port", nullptr) != nullptr;
  uint64_t admin_port = FlagValue(argc, argv, "--admin-port", 0);

  double fault_drop = FlagDouble(argc, argv, "--fault-drop", 0.0);
  uint64_t fault_delay_us = FlagValue(argc, argv, "--fault-delay-us", 0);
  const char* partition_csv = FlagString(argc, argv, "--partition", "");
  uint64_t crash_replica = FlagValue(argc, argv, "--crash-replica", UINT64_MAX);
  uint64_t crash_at_op = FlagValue(argc, argv, "--crash-at-op", 0);
  uint64_t restart_at_op = FlagValue(argc, argv, "--restart-at-op", 0);
  if (crash_replica != UINT64_MAX &&
      crash_replica >= static_cast<uint64_t>(options.config.n)) {
    std::fprintf(stderr, "bft_node: --crash-replica must name a replica index < %d\n",
                 options.config.n);
    return 2;
  }

  RtCluster cluster(options, [](NodeId) { return std::make_unique<KvService>(); });
  if (fault_drop > 0.0 || fault_delay_us > 0) {
    FaultSpec spec;
    spec.drop = fault_drop;
    spec.delay = static_cast<SimTime>(fault_delay_us) * kMicrosecond;
    cluster.faults().SetDefaultFaults(spec);
    std::printf("fault injection armed: drop=%.3f delay=%lluus\n", fault_drop,
                static_cast<unsigned long long>(fault_delay_us));
  }
  if (partition_csv[0] != '\0') {
    std::vector<NodeId> group = ParseIdList(partition_csv);
    cluster.faults().Partition(group);
    std::printf("partition armed: %zu node(s) cut from the rest\n", group.size());
  }
  cluster.tracer().set_sample_every(static_cast<uint32_t>(trace_sample));
  if (slow_ms > 0) {
    cluster.tracer().set_slow_threshold(static_cast<SimTime>(slow_ms) * kMillisecond);
    SetLogLevel(LogLevel::kInfo);  // the tracer logs each slow request at Info
  }
  std::vector<Client*> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.push_back(cluster.AddClient());
  }
  cluster.Start();

  AdminServer admin(&cluster.metrics(), &cluster.tracer());
  admin.SetHealthSource([&cluster]() { return cluster.Health(); });
  if (serve_admin) {
    if (!admin.Listen(static_cast<uint16_t>(admin_port))) {
      std::fprintf(stderr, "bft_node: failed to bind admin port %llu\n",
                   static_cast<unsigned long long>(admin_port));
      return 2;
    }
    std::printf("admin server on 127.0.0.1:%u (GET /metrics, /metrics.json, /traces, /healthz)\n",
                admin.port());
  }
  std::signal(SIGUSR1, OnSigUsr1);

  // Formation and fault layers are decorators; the socket backend (and its ports) is at the
  // bottom of the stack: [Formation ->] Fault -> sockets.
  Transport* backend = &cluster.transport();
  const char* formed = "";
  if (auto* formation = dynamic_cast<FormationTransport*>(backend)) {
    backend = formation->inner();
    formed = " (formation on)";
  }
  if (auto* fault = dynamic_cast<FaultTransport*>(backend)) {
    backend = fault->inner();
  }
  if (auto* udp = dynamic_cast<UdpTransport*>(backend)) {
    std::printf("%d replicas on loopback UDP ports%s:", options.config.n, formed);
    for (int i = 0; i < options.config.n; ++i) {
      std::printf(" %u:%u", options.config.ReplicaId(i),
                  udp->PortOf(options.config.ReplicaId(i)));
    }
    std::printf("\n");
  } else {
    std::printf("%d replicas on the in-process channel%s\n", options.config.n, formed);
  }

  auto start = std::chrono::steady_clock::now();
  uint64_t committed = 0;
  uint64_t failures = 0;
  // A timed-out Execute leaves its request in flight, and Invoke allows only one outstanding
  // op per client — a client that ever times out is retired. Tracked here on the harness
  // thread; Client state itself is only touched on its own loop thread.
  std::vector<bool> retired(clients.size(), false);
  for (uint64_t i = 0; i < ops; ++i) {
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      if (metrics_json[0] != '\0') {
        WriteMetricsJson(metrics_json, cluster.metrics(), &cluster.tracer());
      }
      std::fputs(cluster.metrics().RenderPrometheusText().c_str(), stderr);
    }
    if (crash_replica != UINT64_MAX) {
      if (i == crash_at_op) {
        std::printf("crashing replica %llu at op %llu\n",
                    static_cast<unsigned long long>(crash_replica),
                    static_cast<unsigned long long>(i));
        cluster.CrashReplica(static_cast<int>(crash_replica));
      }
      if (restart_at_op > crash_at_op && i == restart_at_op) {
        std::printf("restarting replica %llu at op %llu\n",
                    static_cast<unsigned long long>(crash_replica),
                    static_cast<unsigned long long>(i));
        cluster.RestartReplica(static_cast<int>(crash_replica));
      }
    }
    size_t c = i % clients.size();
    Client* client = clients[c];
    if (retired[c]) {
      ++failures;
      continue;
    }
    std::string key = "key-" + std::to_string(i % 64);
    std::string value = "value-" + std::to_string(i);
    std::optional<Bytes> put =
        cluster.Execute(client, KvService::PutOp(ToBytes(key), ToBytes(value)));
    if (!put.has_value()) {
      retired[c] = true;
      ++failures;
      continue;
    }
    std::optional<Bytes> got =
        cluster.Execute(client, KvService::GetOp(ToBytes(key)), /*read_only=*/true);
    if (!got.has_value()) {
      retired[c] = true;
      ++failures;
      continue;
    }
    if (ToString(*got) == value) {
      ++committed;
    } else {
      ++failures;
    }
  }
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  admin.Stop();
  cluster.Stop();
  if (metrics_json[0] != '\0') {
    WriteMetricsJson(metrics_json, cluster.metrics(), &cluster.tracer());
  }

  std::printf("%llu/%llu PUT+GET pairs committed in %.3f s (%.0f certified ops/s)\n",
              static_cast<unsigned long long>(committed), static_cast<unsigned long long>(ops),
              elapsed, elapsed > 0 ? 2.0 * static_cast<double>(committed) / elapsed : 0.0);
  if (cluster.faults().injected_count() > 0) {
    std::printf("  faults injected: %llu (bft_fault_injected_total by kind in /metrics)\n",
                static_cast<unsigned long long>(cluster.faults().injected_count()));
  }
  for (int i = 0; i < cluster.num_replicas(); ++i) {
    Replica* r = cluster.replica(i);
    if (r == nullptr) {
      std::printf("  replica %u: crashed (never restarted)\n", options.config.ReplicaId(i));
      continue;
    }
    std::printf("  replica %u: executed=%llu batches=%llu checkpoints=%llu view=%llu "
                "cpu_busy=%.1f ms\n",
                r->id(), static_cast<unsigned long long>(r->stats().requests_executed),
                static_cast<unsigned long long>(r->stats().batches_executed),
                static_cast<unsigned long long>(r->stats().checkpoints_taken),
                static_cast<unsigned long long>(r->view()),
                static_cast<double>(r->cpu().total_busy()) / kMillisecond);
    std::printf("    mac-cache: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(r->auth().mac_cache_hits()),
                static_cast<unsigned long long>(r->auth().mac_cache_misses()));
  }
  if (trace_sample > 0) {
    std::printf("  traced: %llu certified timelines, %llu slow\n",
                static_cast<unsigned long long>(cluster.tracer().completed_count()),
                static_cast<unsigned long long>(cluster.tracer().slow_count()));
  }
  return failures == 0 ? 0 : 1;
}
