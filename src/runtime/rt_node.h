// Real-clock Endpoint: an event-loop thread per node.
//
// The loop serializes everything the automaton sees — received messages, timer callbacks,
// and posted tasks all run on the node's own thread, preserving the core's single-threaded
// execution contract. Timers fire on the monotonic clock; sends go to a Transport (loopback
// UDP or in-process channel). When the transport exposes a pollable receive fd (UDP), the
// loop owns the socket too: it parks in ppoll over {eventfd, socket} and drains datagrams on
// its own thread, so receive costs no cross-thread handoff; transports without an fd
// (in-process) enqueue from the sender's thread and ring the eventfd, once per park. The CpuMeter still
// accumulates the costs the core charges (crypto, execution) for observability, but charges
// never delay real execution, and the simulator's modelled per-message network CPU costs are
// not charged here — real syscalls cost real time instead.
#ifndef SRC_RUNTIME_RT_NODE_H_
#define SRC_RUNTIME_RT_NODE_H_

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "src/common/thread_annotations.h"
#include "src/core/endpoint.h"
#include "src/runtime/transport.h"

namespace bft {

class RtNode final : public Endpoint, public MessageSink {
 public:
  // Registers with `transport` immediately (messages may queue before the loop starts).
  RtNode(NodeId id, Transport* transport, uint64_t seed);
  ~RtNode() override;

  // Launches the event-loop thread. Handlers and timers set before Start() are honored; the
  // harness constructs the whole cluster, then starts every node.
  void Start();
  // Stops and joins the loop thread; pending work is dropped. Idempotent.
  void Stop();

  // Runs `fn` on the loop thread (no CPU-meter bracketing). The harness's door into the
  // node: e.g. posting Client::Invoke so it runs on the client's own thread. Returns false
  // — and drops nothing silently — if the loop has been stopped.
  bool Post(std::function<void()> fn);

  // MessageSink (called from transport threads).
  void EnqueueMessage(MsgBuffer message) override;

  // --- Endpoint ----------------------------------------------------------------------------
  SimTime Now() const override;
  CpuMeter& cpu() override { return cpu_; }
  Rng& rng() override { return rng_; }
  void Send(NodeId dst, MsgBuffer msg) override;
  void Multicast(const std::vector<NodeId>& dsts, const MsgBuffer& msg) override;
  TimerId SetTimer(SimTime delay, std::function<void()> fn) override;
  TimerId SetPeriodicTimer(SimTime period, std::function<void()> fn) override;
  void CancelTimer(TimerId id) override;
  bool ResetTimer(TimerId id, SimTime delay) override;
  void CancelAllTimers() override;
  // Unregisters from the transport and joins the loop thread: after Close() no callback
  // runs, so the owning automaton's state may be destroyed.
  void Close() override;
  void Detach() override;
  void Reattach() override;
  bool attached() const override;

 private:
  // Mailbox cap: a real socket buffer drops under overload; so do we, instead of growing
  // without bound when a peer sends faster than handlers drain.
  static constexpr size_t kMaxInbox = 4096;

  // Deadline sentinel for a periodic timer whose handler is currently running (it is not on
  // the schedule; re-armed when the handler returns unless cancelled or reset meanwhile).
  static constexpr SimTime kFiring = ~SimTime{0};

  struct Timer {
    SimTime deadline = 0;
    SimTime period = 0;  // 0 = one-shot
    std::function<void()> fn;
  };

  void Loop();
  TimerId ArmLocked(SimTime delay, SimTime period, std::function<void()> fn) BFT_REQUIRES(mu_);
  // True for exactly one caller per park: the one that must ring the doorbell. Later
  // producers see rung_ and skip the syscall, since one eventfd write wakes the loop for all.
  bool ClaimRingLocked() BFT_REQUIRES(mu_);
  // Writes the eventfd. Needs no lock; the caller must keep wake_fd_ open (see EnqueueMessage).
  void Ring();
  // Wakes a parked loop with mu_ held, at most one syscall per park.
  void WakeLocked() BFT_REQUIRES(mu_);

  Transport* transport_;
  CpuMeter cpu_;
  Rng rng_;
  const std::chrono::steady_clock::time_point epoch_;
  const int wake_fd_;  // eventfd: producers' doorbell into the loop's ppoll

  mutable Mutex mu_;
  bool started_ BFT_GUARDED_BY(mu_) = false;
  bool stop_ BFT_GUARDED_BY(mu_) = false;
  bool attached_ BFT_GUARDED_BY(mu_) = true;
  // Loop is (about to be) parked in ppoll; producers must ring.
  bool sleeping_ BFT_GUARDED_BY(mu_) = false;
  // Some producer has claimed this park's doorbell; cleared when the loop wakes.
  bool rung_ BFT_GUARDED_BY(mu_) = false;
  std::deque<MsgBuffer> inbox_ BFT_GUARDED_BY(mu_);
  std::deque<std::function<void()>> tasks_ BFT_GUARDED_BY(mu_);
  TimerId next_timer_ BFT_GUARDED_BY(mu_) = 1;
  std::map<TimerId, Timer> timers_ BFT_GUARDED_BY(mu_);
  // (deadline, id), earliest first.
  std::set<std::pair<SimTime, TimerId>> schedule_ BFT_GUARDED_BY(mu_);
  // Written by Start() under mu_; joined by Stop() unlocked (joining under mu_ would deadlock
  // against the loop). The started_ flag is the handshake that keeps the two from racing.
  std::thread thread_;
};

}  // namespace bft

#endif  // SRC_RUNTIME_RT_NODE_H_
