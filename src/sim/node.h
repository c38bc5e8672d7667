// Simulator-backed Endpoint implementation.
//
// Adapts a simulated node to the core's runtime seam: sends depart at the node's CPU cursor
// through the modelled unreliable Network, timers are simulator events whose handlers run
// bracketed by the node's CpuMeter, and the clock is simulated time. The CpuMeter call
// pattern (BeginEvent / Charge / EndEvent around every delivery and timer) is what makes
// saturation — and the paper's throughput ceilings — emerge; it is preserved bit-for-bit
// across the seam refactor so identical seeds produce identical runs.
#ifndef SRC_SIM_NODE_H_
#define SRC_SIM_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/endpoint.h"
#include "src/sim/network.h"

namespace bft {

class Node : public Endpoint, public NetPeer {
 public:
  Node(Simulator* sim, Network* net, NodeId id) : Endpoint(id), sim_(sim), net_(net) {
    net_->Register(id, this, &cpu_);
  }
  ~Node() override {
    Detach();
    CancelAllTimers();
  }

  Simulator* sim() { return sim_; }
  Network* net() { return net_; }

  // NetPeer: called by the network with CPU accounting already started.
  void Deliver(MsgBuffer message) final {
    if (!attached_) {
      return;
    }
    Dispatch(std::move(message));
  }

  // --- Endpoint ----------------------------------------------------------------------------
  SimTime Now() const override { return sim_->Now(); }
  CpuMeter& cpu() override { return cpu_; }
  Rng& rng() override { return sim_->rng(); }

  void Send(NodeId dst, MsgBuffer msg) override {
    cpu_.Charge(net_->SendCpuCost(msg.size()));
    net_->Send(id(), dst, std::move(msg), cpu_.cursor());
  }

  void Multicast(const std::vector<NodeId>& dsts, const MsgBuffer& msg) override {
    cpu_.Charge(net_->SendCpuCost(msg.size()));
    net_->Multicast(id(), dsts, msg, cpu_.cursor());
  }

  TimerId SetTimer(SimTime delay, std::function<void()> fn) override {
    TimerId id = next_timer_++;
    timers_.emplace(id, Timer{Schedule(id, delay), std::move(fn)});
    return id;
  }

  void CancelTimer(TimerId id) override {
    auto it = timers_.find(id);
    if (it == timers_.end()) {
      return;
    }
    sim_->Cancel(it->second.event);
    timers_.erase(it);
  }

  void CancelAllTimers() override {
    for (auto& [id, timer] : timers_) {
      sim_->Cancel(timer.event);
    }
    timers_.clear();
  }

  // Removes the node from the network; in-flight deliveries to it are dropped.
  void Detach() override {
    if (attached_) {
      net_->Unregister(id());
      attached_ = false;
    }
  }
  void Reattach() override {
    if (!attached_) {
      net_->Register(id(), this, &cpu_);
      attached_ = true;
    }
  }

 private:
  struct Timer {
    Simulator::EventId event = 0;
    std::function<void()> fn;
  };

  // Schedules the simulator event for timer `id`. Handlers run under CPU accounting exactly
  // like message deliveries.
  Simulator::EventId Schedule(TimerId id, SimTime delay) {
    return sim_->Schedule(delay, [this, id]() {
      auto it = timers_.find(id);
      if (it == timers_.end()) {
        return;  // cancelled between scheduling and firing (defensive; Cancel removes events)
      }
      // Move the callback out: the entry is erased before running so the handler can
      // re-arm freely.
      std::function<void()> fn = std::move(it->second.fn);
      timers_.erase(it);
      cpu_.BeginEvent(sim_->Now());
      fn();
      cpu_.EndEvent();
    });
  }

  Simulator* sim_;
  Network* net_;
  CpuMeter cpu_;
  bool attached_ = true;
  TimerId next_timer_ = 1;
  std::map<TimerId, Timer> timers_;
};

}  // namespace bft

#endif  // SRC_SIM_NODE_H_
