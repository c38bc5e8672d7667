// Real-clock harness: a replica group plus clients, each on its own event-loop thread,
// joined by a Transport (loopback UDP sockets or the in-process channel).
//
// The runtime mirror of workload/Cluster: the group is the same ReplicaGroup
// (src/workload/replica_group.h), built over RtNode endpoints, so ids, seeds, keys and
// observability are wired exactly as on the simulator. Construction wires every node
// single-threaded; Start() then launches all loops at once. Execute() and RunOn() post work
// onto a node's own loop and block the calling thread until it completes.
#ifndef SRC_RUNTIME_RT_CLUSTER_H_
#define SRC_RUNTIME_RT_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/runtime/fault_transport.h"
#include "src/runtime/formation.h"
#include "src/runtime/inproc_transport.h"
#include "src/runtime/rt_node.h"
#include "src/runtime/udp_transport.h"
#include "src/workload/replica_group.h"

namespace bft {

struct RtClusterOptions {
  ReplicaConfig config;
  PerfModel model;  // drives CpuMeter bookkeeping only; nothing delays real execution
  uint64_t seed = 42;
  enum class TransportKind { kInProc, kUdp };
  TransportKind transport = TransportKind::kInProc;
  // Wrap the backend in the datagram-formation layer: protocol messages to the same
  // destination coalesce into one framed datagram per event-loop iteration. Orthogonal to
  // the backend choice; pointless (but harmless) over kInProc, which has no syscalls to save.
  bool formation = false;
  // Seed for the fault-injection schedule (see FaultTransport). 0 derives one from `seed`,
  // so deterministic tests can pin the fault stream independently of node RNGs.
  uint64_t fault_seed = 0;
};

class RtCluster {
 public:
  RtCluster(RtClusterOptions options, ServiceFactory factory);
  ~RtCluster();  // stops all loops

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  // Clients must be added before Start(): key distribution is a construction-time ceremony
  // (as in the paper's setup phase), not a runtime protocol.
  Client* AddClient();

  // Launches every node's event loop. Call once, after all AddClient() calls.
  void Start();
  // Stops and joins every loop. After Stop() returns, replica state may be read directly.
  void Stop();

  // Synchronously executes one operation; `timeout` is real time.
  std::optional<Bytes> Execute(Client* client, Bytes op, bool read_only = false,
                               SimTime timeout = 10 * kSecond);

  // Runs `fn` on `replica(i)`'s loop thread and waits for it — the safe way to inspect live
  // replica state from the harness thread. No-op while replica `i` is crashed.
  void RunOn(int i, std::function<void()> fn);

  // --- Crash / restart (real fail-stop faults) ----------------------------------------------
  // Tears replica `i` down completely: its event loop stops, it unregisters from the
  // transport, and every piece of volatile state — message log, view, checkpoints, service
  // state — is destroyed. In-flight datagrams to it drop, exactly like a machine losing
  // power. Safe to call from the harness thread while the cluster runs; idempotent.
  void CrashReplica(int i);
  // Brings a crashed replica back, rebuilt by the group exactly as it was first built: a
  // fresh endpoint, empty state, the same node id and key seed (so session keys re-derive
  // identically). It rejoins through the paper's protocol: status exchange reveals the
  // current view and stable checkpoint, and state transfer (§4.6) fetches the service state.
  void RestartReplica(int i);
  bool replica_running(int i) const { return group_.replica(i) != nullptr; }

  // Fault-injection control. Always present in the transport stack (disabled injection is a
  // relaxed atomic load per send); sits under the formation layer so faults hit whole wire
  // datagrams — a corrupt burst exercises the framing decoder, as real bit rot would.
  FaultTransport& faults() { return *fault_; }

  // Null while replica `i` is crashed.
  Replica* replica(int i) { return group_.replica(i); }
  int num_replicas() const { return options_.config.n; }
  Client* client(size_t i) { return clients_[i].get(); }
  size_t num_clients() const { return clients_.size(); }
  Transport& transport() { return *transport_; }
  const ReplicaConfig& config() const { return group_.config(); }

  // Harness-owned observability (see workload/Cluster). Thread-safe: instruments are
  // atomics, the tracer locks internally, so loop threads record while the harness exports.
  MetricsRegistry& metrics() { return metrics_; }
  RequestTracer& tracer() { return tracer_; }

  // The /healthz document: each live replica's row is collected ON its loop thread (RunOn),
  // crashed replicas report running=false. Callable from any thread that is not itself
  // concurrently crashing/restarting replicas — the AdminServer accept thread qualifies,
  // since harness threads block on their HTTP request while this runs.
  HealthSnapshot Health();

 private:
  RtClusterOptions options_;
  // Destroyed after the replicas/clients/transport whose instruments point into it.
  MetricsRegistry metrics_;
  RequestTracer tracer_;
  // Borrowed from the transport_ stack; declared first because building the stack sets it.
  FaultTransport* fault_ = nullptr;
  std::unique_ptr<Transport> transport_;
  ReplicaGroup group_;
  std::vector<std::unique_ptr<Client>> clients_;
  NodeId next_client_id_ = kClientIdBase;
  bool started_ = false;
};

}  // namespace bft

#endif  // SRC_RUNTIME_RT_CLUSTER_H_
