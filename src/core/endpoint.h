// The runtime seam: everything the protocol core needs from its execution environment.
//
// `Replica` and `Client` are pure automata; an Endpoint supplies their node identity,
// unicast/multicast transport, one-shot timers, a monotonic clock, a random number
// generator, and the CPU meter their work is charged to. Two implementations exist:
//
//   - src/sim/node.h     — discrete-event simulation: timers are simulator events, sends go
//                          through the modelled unreliable Network, the clock is simulated
//                          time, and CpuMeter charges delay departures (saturation emerges).
//   - src/runtime/       — real clock: an event-loop thread per node, sends go through a
//                          Transport (loopback UDP sockets, or an in-process channel for
//                          fast tests), timers fire on the monotonic clock.
//
// A harness picks the runtime only by the endpoints it makes: every harness builds its
// replica group through one ReplicaGroup (src/workload/replica_group.h), which calls the
// harness's endpoint factory for each replica and client and wires everything else the same
// way on both runtimes.
//
// Threading contract: all handler and timer callbacks for one endpoint run on one logical
// thread (the simulator's event loop, or the node's own loop thread), so the core never
// locks. The core only calls Send/SetTimer/CancelTimer from that callback thread (or during
// construction); the real-clock implementation additionally serializes every endpoint method
// internally, so harnesses and tests may call them from other threads too.
#ifndef SRC_CORE_ENDPOINT_H_
#define SRC_CORE_ENDPOINT_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/msg_buffer.h"
#include "src/common/rng.h"
#include "src/core/clock.h"
#include "src/core/cpu_meter.h"

namespace bft {

class Endpoint {
 public:
  using TimerId = uint64_t;
  using Handler = std::function<void(MsgBuffer)>;

  explicit Endpoint(NodeId id) : id_(id) {}
  virtual ~Endpoint() = default;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId id() const { return id_; }

  // Installs the upcall for (unauthenticated) messages off the wire. The automaton installs
  // itself here; delivery begins only after the runtime is started by the harness.
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Monotonic clock, ns. Simulated time or real time since runtime start.
  virtual SimTime Now() const = 0;

  // Meter that protocol work (crypto, execution) is charged to. In the simulator charges
  // delay this node's sends and subsequent handlers; in the real runtime they are statistics.
  virtual CpuMeter& cpu() = 0;

  // Deterministically seeded in the simulator; per-node seeded in the real runtime.
  virtual Rng& rng() = 0;

  // --- Transport ---------------------------------------------------------------------------
  // Unreliable, unauthenticated datagram semantics (the paper's UDP): messages may be
  // dropped, duplicated, or reordered; receivers authenticate at the protocol layer.
  virtual void Send(NodeId dst, MsgBuffer msg) = 0;
  // One send cost; the encoded buffer is serialized once and shared (refcounted) across all
  // destinations; `id()` itself is skipped.
  virtual void Multicast(const std::vector<NodeId>& dsts, const MsgBuffer& msg) = 0;

  // --- Timers ------------------------------------------------------------------------------
  // One-shot: fires once, `delay` from now. Handlers run under CPU accounting, on the
  // endpoint's logical thread; a handler that needs a period re-arms itself.
  virtual TimerId SetTimer(SimTime delay, std::function<void()> fn) = 0;
  // Cancelling an already-fired or unknown id is a no-op.
  virtual void CancelTimer(TimerId id) = 0;
  virtual void CancelAllTimers() = 0;

  // Quiesces the endpoint: stops delivery, cancels timers, and joins any runtime threads, so
  // no callback is running or will run after it returns. The owning automaton calls this
  // first thing in its destructor — its protocol state must outlive every callback.
  virtual void Close() {
    Detach();
    CancelAllTimers();
  }

  // --- Fault injection / crash-recovery support --------------------------------------------
  // Detach stops delivery to this endpoint: incoming messages are dropped (in-flight ones
  // too). Outgoing sends and timers are unaffected — the automaton gates those itself (its
  // crashed/recovering flags). Reattach restores delivery.
  virtual void Detach() = 0;
  virtual void Reattach() = 0;

 protected:
  // Implementations deliver a received message through this (CPU accounting already begun).
  void Dispatch(MsgBuffer msg) {
    if (handler_) {
      handler_(std::move(msg));
    }
  }

 private:
  NodeId id_;
  Handler handler_;
};

}  // namespace bft

#endif  // SRC_CORE_ENDPOINT_H_
