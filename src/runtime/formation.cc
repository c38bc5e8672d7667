#include "src/runtime/formation.h"

#include <cstring>
#include <utility>

namespace bft {

// --- Wire format ----------------------------------------------------------------------------

bool IsFormedDatagram(ByteView datagram) {
  return datagram.size() >= kFormationHeaderSize &&
         std::memcmp(datagram.data(), kFormationMagic, kFormationHeaderSize) == 0;
}

void BeginFormedDatagram(Writer& w) {
  w.Raw(ByteView(kFormationMagic, kFormationHeaderSize));
}

void AppendFormedFrame(Writer& w, ByteView frame) {
  w.U32(static_cast<uint32_t>(frame.size()));
  w.Raw(frame);
}

FrameSplitResult SplitFormedDatagram(const MsgBuffer& datagram,
                                     const std::function<void(MsgBuffer)>& fn) {
  FrameSplitResult result;
  ByteView view = datagram.view();
  if (!IsFormedDatagram(view)) {
    return result;
  }
  result.formed = true;
  // Strict frame walk: every frame header must be whole, every declared length must fit in
  // the bytes that remain, and a valid datagram ends exactly on a frame boundary. The loop
  // stops at the FIRST violation — frames already validated are delivered (a Byzantine
  // sender could just as well have sent them alone), the malformed tail is dropped.
  size_t pos = kFormationHeaderSize;
  while (view.size() - pos >= kFrameHeaderSize) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(view[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += kFrameHeaderSize;
    if (len == 0 || len > view.size() - pos) {
      return result;  // ok stays false: zero-length or truncated frame
    }
    fn(datagram.Slice(pos, len));
    ++result.frames;
    pos += len;
  }
  // Trailing bytes too short to hold a frame header are garbage; an empty formed datagram
  // (magic with no frames) is malformed too — a real sender always packs at least one.
  result.ok = pos == view.size() && result.frames > 0;
  return result;
}

// --- Receive-side sink ----------------------------------------------------------------------

class FormationTransport::SplitSink final : public MessageSink {
 public:
  SplitSink(MessageSink* sink, Obs* obs) : sink_(sink), obs_(obs) {}

  void EnqueueMessage(MsgBuffer message) override {
    FrameSplitResult r = SplitFormedDatagram(
        message, [this](MsgBuffer frame) { sink_->EnqueueMessage(std::move(frame)); });
    if (!r.formed) {
      sink_->EnqueueMessage(std::move(message));  // bare protocol message, as before formation
      return;
    }
    if (!r.ok) {
      obs_->decode_errors->Inc();
    }
  }

 private:
  MessageSink* const sink_;
  Obs* const obs_;
};

// --- Transport decorator --------------------------------------------------------------------

FormationTransport::FormationTransport(std::unique_ptr<Transport> inner, FormationOptions options)
    : inner_(std::move(inner)), options_(options) {
  InstallMetrics(&MetricsRegistry::Process());
}

FormationTransport::~FormationTransport() = default;

void FormationTransport::InstallMetrics(MetricsRegistry* registry) {
  obs_.frames_per_datagram = registry->GetHistogram("bft_formation_frames_per_datagram", "");
  obs_.packed_messages = registry->GetCounter("bft_formation_packed_messages_total", "");
  obs_.flush_idle = registry->GetCounter("bft_formation_flush_total", "reason=\"idle\"");
  obs_.flush_size = registry->GetCounter("bft_formation_flush_total", "reason=\"size\"");
  obs_.flush_frames = registry->GetCounter("bft_formation_flush_total", "reason=\"frames\"");
  obs_.passthrough_multicast =
      registry->GetCounter("bft_formation_passthrough_total", "kind=\"multicast\"");
  obs_.decode_errors = registry->GetCounter("bft_formation_decode_errors_total", "");
  inner_->InstallMetrics(registry);
}

void FormationTransport::Register(NodeId id, MessageSink* sink) {
  Unregister(id);  // mirror the inner transports: re-registering must not leak state
  SplitSink* wrapper = nullptr;
  {
    WriterMutexLock lock(mu_);
    auto sink_owner = std::make_unique<SplitSink>(sink, &obs_);
    wrapper = sink_owner.get();
    sinks_[id] = std::move(sink_owner);
    states_[id] = std::make_unique<SourceState>();
  }
  inner_->Register(id, wrapper);
}

void FormationTransport::Unregister(NodeId id) {
  // Inner first: once it returns, no delivery is mid-flight through the split sink, so the
  // wrapper can be destroyed. Queued outbound frames are dropped with the node — exactly
  // what UDP does to packets addressed from a dead socket.
  inner_->Unregister(id);
  WriterMutexLock lock(mu_);
  sinks_.erase(id);
  states_.erase(id);
}

void FormationTransport::AppendFrameLocked(NodeId src, SourceState& state, NodeId dst,
                                           const MsgBuffer& message, Counter* flush_reason) {
  PerDst& queue = state.queues[dst];
  size_t added = kFrameHeaderSize + message.size();
  // Emitting *before* the append keeps every datagram under the budget; a message too large
  // to ever fit rides alone as an unframed passthrough and fails (or not) in the inner
  // transport exactly as it would have without formation.
  if (!queue.frames.empty() && queue.wire_bytes + added > options_.max_datagram) {
    EmitQueueLocked(src, dst, queue, obs_.flush_size);
  }
  queue.frames.push_back(message);
  queue.wire_bytes += added;
  if (queue.frames.size() >= options_.max_frames) {
    // Bounded packing delay: a loop that stays busy for a long stretch still sends every
    // max_frames-th message, so peers are never starved behind an ever-growing queue.
    EmitQueueLocked(src, dst, queue, obs_.flush_frames);
  }
}

void FormationTransport::FoldMulticastsLocked(NodeId src, SourceState& state) {
  for (size_t i = 0; i < state.num_multicasts; ++i) {
    PendingMulticast& m = state.multicasts[i];
    for (NodeId dst : m.dsts) {
      if (dst == src) {
        continue;
      }
      AppendFrameLocked(src, state, dst, m.message, obs_.flush_size);
    }
    m.message = MsgBuffer();  // the queued frames hold their own references
  }
  state.num_multicasts = 0;
}

void FormationTransport::EmitQueueLocked(NodeId src, NodeId dst, PerDst& queue,
                                         Counter* flush_reason) {
  if (queue.frames.empty()) {
    return;
  }
  obs_.frames_per_datagram->Record(queue.frames.size());
  flush_reason->Inc();
  if (queue.frames.size() == 1) {
    // Unframed passthrough: the single message leaves byte-identical to the unformed
    // transport, sharing the producer's encoding (no copy, no framing overhead).
    inner_->Send(src, dst, std::move(queue.frames.front()));
  } else {
    Writer w(queue.wire_bytes);
    BeginFormedDatagram(w);
    for (const MsgBuffer& frame : queue.frames) {
      AppendFormedFrame(w, frame.view());
    }
    obs_.packed_messages->Inc(queue.frames.size());
    inner_->Send(src, dst, MsgBuffer(w.Take()));
  }
  queue.frames.clear();
  queue.wire_bytes = kFormationHeaderSize;
}

void FormationTransport::Send(NodeId src, NodeId dst, MsgBuffer message) {
  ReaderMutexLock lock(mu_);
  auto it = states_.find(src);
  if (it == states_.end()) {
    inner_->Send(src, dst, std::move(message));  // unregistered source: nothing queues it
    return;
  }
  AppendFrameLocked(src, *it->second, dst, message, obs_.flush_size);
}

void FormationTransport::Multicast(NodeId src, const std::vector<NodeId>& dsts,
                                   const MsgBuffer& message) {
  ReaderMutexLock lock(mu_);
  auto it = states_.find(src);
  if (it == states_.end()) {
    inner_->Multicast(src, dsts, message);
    return;
  }
  SourceState& state = *it->second;
  // Queued whole, not per destination: if this iteration produces nothing else, Flush hands
  // the multicast to the inner transport's batched fan-out (one sendmmsg, one shared
  // buffer). Only when other traffic is packing does it fold into the per-peer datagrams.
  if (state.num_multicasts == state.multicasts.size()) {
    state.multicasts.emplace_back();
  }
  PendingMulticast& m = state.multicasts[state.num_multicasts++];
  m.dsts.assign(dsts.begin(), dsts.end());
  m.message = message;
  if (state.num_multicasts >= options_.max_frames) {
    FoldMulticastsLocked(src, state);
  }
}

void FormationTransport::Flush(NodeId src) {
  ReaderMutexLock lock(mu_);
  auto it = states_.find(src);
  if (it == states_.end()) {
    return;
  }
  SourceState& state = *it->second;
  bool queues_empty = true;
  for (const auto& [dst, queue] : state.queues) {
    if (!queue.frames.empty()) {
      queues_empty = false;
      break;
    }
  }
  if (queues_empty && state.num_multicasts == 1) {
    // Idle fast path: the iteration produced exactly one multicast and nothing else — the
    // dominant shape at low load (a pre-prepare, a prepare, a commit). Hand it to the inner
    // fan-out unframed, preserving the single-syscall shared-buffer path.
    PendingMulticast& m = state.multicasts.front();
    state.num_multicasts = 0;
    obs_.frames_per_datagram->Record(1);
    obs_.passthrough_multicast->Inc();
    inner_->Multicast(src, m.dsts, m.message);
    m.message = MsgBuffer();
  } else if (!queues_empty || state.num_multicasts != 0) {
    FoldMulticastsLocked(src, state);
    for (auto& [dst, queue] : state.queues) {
      EmitQueueLocked(src, dst, queue, obs_.flush_idle);
    }
  }
}

int FormationTransport::ReceiveFd(NodeId id) const { return inner_->ReceiveFd(id); }

void FormationTransport::Drain(NodeId id) { inner_->Drain(id); }

}  // namespace bft
