// Endpoint timer semantics, shared across both runtime implementations.
//
// The same contract — one-shot firing, cancel before fire, handler re-arming, cancel-all —
// is exercised against the simulator-backed Node and the real-clock RtNode via a typed
// fixture. Real-clock assertions only ever bound from below (a timer must not fire before
// its deadline) or wait with generous deadlines, so slow CI machines cannot flake.
//
// The last two tests race the in-process delivery path from many threads: sends against
// Register/Unregister, and concurrent enqueues against a loop that parks between bursts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/runtime/inproc_transport.h"
#include "src/runtime/rt_node.h"
#include "src/sim/node.h"

namespace bft {
namespace {

// Drives a simulator-backed endpoint: time is simulated, Run() is exact.
class SimEndpointDriver {
 public:
  SimEndpointDriver() : sim_(1), net_(&sim_, NetworkOptions{}), node_(&sim_, &net_, 0) {}

  Endpoint& ep() { return node_; }
  // Advances past `d` of endpoint time.
  void RunFor(SimTime d) { sim_.RunFor(d + 1); }
  // Waits (bounded) until `done` holds; returns whether it did.
  bool RunUntil(const std::function<bool()>& done) {
    return sim_.RunUntilCondition(done, sim_.Now() + 60 * kSecond);
  }

 private:
  Simulator sim_;
  Network net_;
  Node node_;
};

// Drives a real-clock endpoint: time is wall time, Run() sleeps.
class RtEndpointDriver {
 public:
  RtEndpointDriver() : node_(0, &transport_, 7) { node_.Start(); }
  ~RtEndpointDriver() { node_.Stop(); }

  Endpoint& ep() { return node_; }
  void RunFor(SimTime d) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d + kMillisecond));
  }
  bool RunUntil(const std::function<bool()>& done) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  }

 private:
  InProcTransport transport_;
  RtNode node_;
};

template <typename Driver>
class EndpointTimerTest : public ::testing::Test {
 protected:
  Driver driver_;
};

using Drivers = ::testing::Types<SimEndpointDriver, RtEndpointDriver>;
TYPED_TEST_SUITE(EndpointTimerTest, Drivers);

TYPED_TEST(EndpointTimerTest, OneShotFires) {
  std::atomic<int> fired{0};
  this->driver_.ep().SetTimer(10 * kMillisecond, [&fired]() { ++fired; });
  EXPECT_TRUE(this->driver_.RunUntil([&fired]() { return fired.load() == 1; }));
}

TYPED_TEST(EndpointTimerTest, CancelBeforeFireSuppresses) {
  // The delay is far longer than any plausible preemption between SetTimer and CancelTimer,
  // so the cancel always races ahead of the deadline even on a stalled CI machine.
  std::atomic<int> fired{0};
  Endpoint& ep = this->driver_.ep();
  Endpoint::TimerId id = ep.SetTimer(2 * kSecond, [&fired]() { ++fired; });
  ep.CancelTimer(id);
  this->driver_.RunFor(2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(fired.load(), 0);
}

TYPED_TEST(EndpointTimerTest, CancelUnknownIdIsNoop) {
  this->driver_.ep().CancelTimer(0);
  this->driver_.ep().CancelTimer(999'999);
}

TYPED_TEST(EndpointTimerTest, HandlerCanRearmItself) {
  Endpoint& ep = this->driver_.ep();
  std::atomic<int> fired{0};
  std::function<void()> chain = [&ep, &fired, &chain]() {
    if (++fired < 3) {
      ep.SetTimer(2 * kMillisecond, chain);
    }
  };
  ep.SetTimer(2 * kMillisecond, chain);
  EXPECT_TRUE(this->driver_.RunUntil([&fired]() { return fired.load() == 3; }));
  this->driver_.RunFor(50 * kMillisecond);
  EXPECT_EQ(fired.load(), 3);
}

TYPED_TEST(EndpointTimerTest, CancelAllTimersSuppressesEverything) {
  // Delays dwarf any plausible preemption between arming and CancelAllTimers (see
  // CancelBeforeFireSuppresses).
  Endpoint& ep = this->driver_.ep();
  std::atomic<int> fired{0};
  ep.SetTimer(2 * kSecond, [&fired]() { ++fired; });
  ep.SetTimer(2 * kSecond, [&fired]() { ++fired; });
  ep.CancelAllTimers();
  this->driver_.RunFor(2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(fired.load(), 0);
}

// Counts deliveries, and those that land while the sink is not registered.
class GatedSink final : public MessageSink {
 public:
  void EnqueueMessage(MsgBuffer message) override {
    delivered.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();  // widens the window a delivery outliving Unregister would hit
    if (!open.load(std::memory_order_acquire)) {
      late.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::atomic<bool> open{false};
  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> late{0};
};

TEST(InProcConcurrencyTest, NoDeliveryAfterUnregisterReturns) {
  // Four senders Send and Multicast to node 1 while the test thread registers and
  // unregisters it. Unregister's contract: once it returns, no delivery is in flight, so the
  // sink sees nothing between Unregister returning and the next Register.
  InProcTransport transport;
  GatedSink toggled;
  GatedSink steady;  // keeps multicasts fanning out while node 1 is away
  steady.open = true;
  transport.Register(2, &steady);
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (NodeId src = 10; src < 14; ++src) {
    senders.emplace_back([&transport, &done, src]() {
      MsgBuffer message(Bytes(64, static_cast<uint8_t>(src)));
      const std::vector<NodeId> dsts = {1, 2};
      for (uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        if (i % 2 == 0) {
          transport.Send(src, 1, message);
        } else {
          transport.Multicast(src, dsts, message);
        }
        // Reader-preferring shared locks let back-to-back senders starve the writer; a
        // pause per send leaves Unregister a window, as an event loop's idle gaps do.
        std::this_thread::yield();
      }
    });
  }
  for (int cycle = 0; cycle < 5000; ++cycle) {
    toggled.open.store(true, std::memory_order_release);
    transport.Register(1, &toggled);
    std::this_thread::yield();
    transport.Unregister(1);
    toggled.open.store(false, std::memory_order_release);
    std::this_thread::yield();
  }
  done = true;
  for (std::thread& t : senders) {
    t.join();
  }
  EXPECT_EQ(toggled.late.load(), 0u);
  EXPECT_GT(toggled.delivered.load(), 0u);
  EXPECT_GT(steady.delivered.load(), 0u);
}

TEST(InProcConcurrencyTest, ParkedLoopDispatchesEveryBurst) {
  // Eight producers enqueue a burst each into a node whose loop parks between rounds, with
  // no timer armed: a lost doorbell would leave the loop asleep with messages queued and the
  // round would never finish. Each round must drain completely before the next begins.
  constexpr int kProducers = 8;
  constexpr int kRounds = 200;
  constexpr int kBurst = 4;
  InProcTransport transport;
  RtNode node(0, &transport, 7);
  std::atomic<uint64_t> dispatched{0};
  node.SetHandler([&dispatched](MsgBuffer) { dispatched.fetch_add(1); });
  node.Start();
  std::atomic<int> round{0};
  std::atomic<bool> give_up{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&node, &round, &give_up]() {
      MsgBuffer message(Bytes(32, 0x7e));
      for (int mine = 1; mine <= kRounds; ++mine) {
        while (round.load() < mine) {
          if (give_up.load()) {
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        for (int i = 0; i < kBurst; ++i) {
          node.EnqueueMessage(message);
        }
      }
    });
  }
  for (int r = 1; r <= kRounds && !give_up; ++r) {
    round = r;
    const uint64_t want = static_cast<uint64_t>(r) * kProducers * kBurst;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (dispatched.load() < want && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (dispatched.load() != want) {
      ADD_FAILURE() << "round " << r << ": " << dispatched.load() << " of " << want
                    << " messages dispatched within 10 s";
      give_up = true;
    }
  }
  give_up = true;
  for (std::thread& t : producers) {
    t.join();
  }
  node.Stop();
}

}  // namespace
}  // namespace bft
