#include "src/runtime/rt_node.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/logging.h"

namespace bft {

namespace {
// One epoch for the whole process: every RtNode's Now() counts nanoseconds from the same
// instant, so trace stamps taken on different loop threads (client dispatch on one node,
// execution on another) are directly comparable — per-node epochs would skew each phase by
// the nodes' construction-time offsets.
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return epoch;
}
}  // namespace

RtNode::RtNode(NodeId id, Transport* transport, uint64_t seed)
    : Endpoint(id),
      transport_(transport),
      rng_(seed ^ (id * 0xa0761d6478bd642fULL)),
      epoch_(ProcessEpoch()),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) {
    // Without the doorbell the loop could sleep through every posted task and timer change;
    // fail fast rather than debugging a silently wedged cluster.
    std::perror("RtNode: eventfd");
    std::abort();
  }
  transport_->Register(id, this);
}

RtNode::~RtNode() {
  Close();
  ::close(wake_fd_);
}

void RtNode::Close() {
  // Order matters: the loop is joined before Unregister closes the transport state it polls
  // and drains (the UDP socket). Deliveries that land between the join and Unregister just
  // sit in the mutex-guarded inbox of a loop that will never run again. Both steps are
  // idempotent — the destructor re-runs them harmlessly after an explicit Close().
  Stop();
  transport_->Unregister(id());
}

void RtNode::Start() {
  MutexLock lock(mu_);
  if (started_) {
    return;
  }
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this]() { Loop(); });
}

void RtNode::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_) {
      return;
    }
    stop_ = true;
    WakeLocked();
  }
  thread_.join();
  MutexLock lock(mu_);
  started_ = false;
}

bool RtNode::ClaimRingLocked() {
  if (!sleeping_ || rung_) {
    // Running: the loop re-scans its queues before parking. Already rung: the earlier
    // ringer's write wakes the loop, which then sees this producer's work too.
    return false;
  }
  rung_ = true;
  return true;
}

void RtNode::Ring() {
  uint64_t one = 1;
  // The eventfd is a saturating counter; a full buffer already means "awake", so a failed
  // write needs no handling.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void RtNode::WakeLocked() {
  if (ClaimRingLocked()) {
    Ring();
  }
}

bool RtNode::Post(std::function<void()> fn) {
  MutexLock lock(mu_);
  if (stop_) {
    return false;  // the loop is (being) stopped and would silently drop the task
  }
  tasks_.push_back(std::move(fn));
  WakeLocked();
  return true;
}

void RtNode::EnqueueMessage(MsgBuffer message) {
  bool ring = false;
  {
    MutexLock lock(mu_);
    if (!attached_) {
      return;  // detached: the wire drops everything addressed to us
    }
    if (inbox_.size() >= kMaxInbox) {
      return;  // mailbox full: drop, exactly like a UDP socket buffer under overload
    }
    inbox_.push_back(std::move(message));
    // A futex/eventfd wake per datagram dominates small-message receive cost under load:
    // only the first enqueue into a parked loop rings.
    ring = ClaimRingLocked();
  }
  // The write happens outside mu_, so the woken loop does not block on the lock we hold.
  // wake_fd_ is still open here: every delivery path (InProcTransport::Send/Multicast,
  // FaultTransport::DeliverDirect, UdpTransport::Drain) calls us under a transport reader
  // lock, and ~RtNode closes wake_fd_ only after Unregister, which takes that lock
  // exclusively, has returned. A write that lands after the loop woke for another reason
  // costs at most one spurious wakeup.
  if (ring) {
    Ring();
  }
}

SimTime RtNode::Now() const {
  return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - epoch_)
                                  .count());
}

void RtNode::Send(NodeId dst, MsgBuffer msg) { transport_->Send(id(), dst, std::move(msg)); }

void RtNode::Multicast(const std::vector<NodeId>& dsts, const MsgBuffer& msg) {
  // One encoding, one transport fan-out: the payload is never copied, and a batching
  // transport turns the whole multicast into a single syscall / lock acquisition.
  transport_->Multicast(id(), dsts, msg);
}

Endpoint::TimerId RtNode::SetTimer(SimTime delay, std::function<void()> fn) {
  MutexLock lock(mu_);
  TimerId id = next_timer_++;
  SimTime deadline = Now() + delay;
  timers_.emplace(id, Timer{deadline, std::move(fn)});
  schedule_.emplace(deadline, id);
  WakeLocked();  // the new deadline may be earlier than the one the loop sleeps toward
  return id;
}

void RtNode::CancelTimer(TimerId id) {
  MutexLock lock(mu_);
  auto it = timers_.find(id);
  if (it == timers_.end()) {
    return;
  }
  schedule_.erase({it->second.deadline, id});
  timers_.erase(it);
}

void RtNode::CancelAllTimers() {
  MutexLock lock(mu_);
  timers_.clear();
  schedule_.clear();
}

void RtNode::Detach() {
  MutexLock lock(mu_);
  attached_ = false;
  inbox_.clear();  // in-flight deliveries are dropped, like a sim-network unregister
}

void RtNode::Reattach() {
  MutexLock lock(mu_);
  attached_ = true;
}

void RtNode::Loop() {
  SetThreadLogPrefix("n" + std::to_string(id()));
  MutexLock lock(mu_);
  while (true) {
    if (stop_) {
      // Post()'s contract is run-or-reject, never silently drop: once stop_ is set no new
      // task enqueues, so draining here guarantees every accepted task executes and a
      // harness blocked on its rendezvous (RtCluster::RunOn) always wakes.
      while (!tasks_.empty()) {
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop_front();
        lock.Unlock();
        task();
        lock.Lock();
      }
      return;
    }
    // 1. Due timers run before messages: a peer flooding the mailbox must not be able to
    // starve the view-change and retry timers — those exist precisely for such peers. The
    // entry is taken off the schedule before the callback runs so the handler can freely set
    // or cancel timers, and re-arm itself.
    if (!schedule_.empty() && schedule_.begin()->first <= Now()) {
      auto it = timers_.find(schedule_.begin()->second);
      schedule_.erase(schedule_.begin());
      std::function<void()> fn = std::move(it->second.fn);
      timers_.erase(it);
      lock.Unlock();
      cpu_.BeginEvent(Now());
      fn();
      cpu_.EndEvent();
      lock.Lock();
      continue;
    }
    // 2. Posted tasks (harness work such as Client::Invoke) run before messages: posts are
    // rare and finite, while a sustained inbound stream could otherwise starve them and hang
    // a harness waiting on RunOn's rendezvous.
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.Unlock();
      task();
      lock.Lock();
      continue;
    }
    // 3. Messages, in arrival order.
    if (!inbox_.empty()) {
      MsgBuffer message = std::move(inbox_.front());
      inbox_.pop_front();
      lock.Unlock();
      cpu_.BeginEvent(Now());
      Dispatch(std::move(message));
      cpu_.EndEvent();
      lock.Lock();
      continue;
    }
    // 4. Nothing runnable: flush the transport, then park in ppoll over the doorbell eventfd
    // and (if the transport is loop-driven, e.g. UDP) the receive socket until the next timer
    // deadline. The flush is the formation layer's trigger — it emits whatever the handlers
    // above packed this iteration; it runs after sleeping_ is set (a reply racing back before
    // the park still rings the doorbell, which is level-readable, so the wakeup is never lost)
    // and outside mu_ (an in-process delivery to a peer must not nest our lock under the
    // transport's).
    sleeping_ = true;
    timespec ts{};
    timespec* timeout = nullptr;  // no timer armed: sleep until a datagram or the doorbell
    if (!schedule_.empty()) {
      SimTime now = Now();
      SimTime wait_ns = schedule_.begin()->first > now ? schedule_.begin()->first - now : 0;
      ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
      timeout = &ts;
    }
    lock.Unlock();
    transport_->Flush(id());
    pollfd fds[2];
    fds[0] = {wake_fd_, POLLIN, 0};
    nfds_t nfds = 1;
    int recv_fd = transport_->ReceiveFd(id());
    if (recv_fd >= 0) {
      fds[1] = {recv_fd, POLLIN, 0};
      nfds = 2;
    }
    int ready = ::ppoll(fds, nfds, timeout, nullptr);
    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      uint64_t drained;
      [[maybe_unused]] ssize_t n = ::read(wake_fd_, &drained, sizeof(drained));
    }
    lock.Lock();
    sleeping_ = false;  // cleared before Drain so our own enqueues skip the doorbell
    rung_ = false;
    if (ready > 0 && nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      // Datagrams flow straight into our inbox on this thread — no reader-thread handoff.
      lock.Unlock();
      transport_->Drain(id());
      lock.Lock();
    }
  }
}

}  // namespace bft
