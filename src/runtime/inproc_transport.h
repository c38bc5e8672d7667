// In-process channel transport: datagrams are handed straight to the destination node's
// mailbox. The fast path for multi-threaded runtime tests — same threading model as UDP
// (every node still runs its own event loop) without sockets or syscalls.
//
// Locking is UdpTransport's scheme: Send/Multicast hold the map lock shared across the
// destination's EnqueueMessage, so the loop threads' deliveries run concurrently, while
// Register/Unregister take it exclusively. Unregister therefore returns only once every
// delivery that could still reach the departing sink has finished.
#ifndef SRC_RUNTIME_INPROC_TRANSPORT_H_
#define SRC_RUNTIME_INPROC_TRANSPORT_H_

#include <map>

#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/runtime/transport.h"

namespace bft {

class InProcTransport final : public Transport {
 public:
  InProcTransport() { InstallMetrics(&MetricsRegistry::Process()); }

  void InstallMetrics(MetricsRegistry* registry) override {
    datagrams_ = registry->GetCounter("bft_transport_datagrams_sent_total", "transport=\"inproc\"");
    bytes_ = registry->GetCounter("bft_transport_bytes_sent_total", "transport=\"inproc\"");
  }

  void Register(NodeId id, MessageSink* sink) override {
    WriterMutexLock lock(mu_);
    sinks_[id] = sink;
  }

  void Unregister(NodeId id) override {
    // Deliveries hold mu_ shared, so once the exclusive erase returns none is in flight.
    WriterMutexLock lock(mu_);
    sinks_.erase(id);
  }

  void Send(NodeId src, NodeId dst, MsgBuffer message) override {
    ReaderMutexLock lock(mu_);
    auto it = sinks_.find(dst);
    if (it == sinks_.end()) {
      return;  // unknown destination: dropped, like any datagram
    }
    datagrams_->Inc();
    bytes_->Inc(message.size());
    it->second->EnqueueMessage(std::move(message));
  }

  void Multicast(NodeId src, const std::vector<NodeId>& dsts, const MsgBuffer& message) override {
    // One lock acquisition and one refcounted buffer for the whole fan-out.
    ReaderMutexLock lock(mu_);
    for (NodeId dst : dsts) {
      if (dst == src) {
        continue;
      }
      auto it = sinks_.find(dst);
      if (it == sinks_.end()) {
        continue;
      }
      datagrams_->Inc();
      bytes_->Inc(message.size());
      it->second->EnqueueMessage(message);
    }
  }

 private:
  SharedMutex mu_;
  std::map<NodeId, MessageSink*> sinks_ BFT_GUARDED_BY(mu_);
  Counter* datagrams_ = nullptr;
  Counter* bytes_ = nullptr;
};

}  // namespace bft

#endif  // SRC_RUNTIME_INPROC_TRANSPORT_H_
