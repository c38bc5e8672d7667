// E8 — State transfer (thesis Section 8.4.2): time to bring a replica that missed
// modifications to X MB of state back up to date, and the effective transfer rate.
#include "bench/bench_util.h"
#include "src/service/kv_service.h"

using namespace bft;

namespace {

// A service that dirties a configurable number of pages per operation so the bench can
// control exactly how much state a lagging replica misses.
class PageWriterService : public Service {
 public:
  void Initialize(ReplicaState* state) override { state_ = state; }
  Bytes Execute(NodeId client, ByteView op, ByteView ndet, bool read_only) override {
    Reader r(op);
    uint64_t first_page = r.U64();
    uint64_t count = r.U64();
    uint64_t stamp = r.U64();
    for (uint64_t p = first_page; p < first_page + count && p < state_->num_pages(); ++p) {
      state_->Write(p * state_->page_size() + (stamp % 64) * 8,
                    ByteView(reinterpret_cast<const uint8_t*>(&stamp), sizeof(stamp)));
    }
    return ToBytes("ok");
  }
  static Bytes MakeOp(uint64_t first_page, uint64_t count, uint64_t stamp) {
    Writer w;
    w.U64(first_page);
    w.U64(count);
    w.U64(stamp);
    return w.Take();
  }

 private:
  ReplicaState* state_ = nullptr;
};

}  // namespace

int main() {
  PrintHeader("E8", "state transfer: fetch time and rate vs amount of out-of-date state");
  std::printf("%-14s %-12s %16s %14s %12s\n", "modified (KB)", "pages", "transfer (ms)",
              "rate (MB/s)", "fetched");

  for (uint64_t pages : {16u, 64u, 256u, 1024u}) {
    ClusterOptions options = BenchOptions(800 + pages);
    options.config.page_size = 4096;
    options.config.state_pages = 2048;  // 8 MB state
    options.config.partition_branching = 16;
    options.config.checkpoint_period = 8;
    options.config.log_size = 16;
    Cluster cluster(options,
                    [](NodeId) { return std::make_unique<PageWriterService>(); });
    Client* client = cluster.AddClient();

    // Replica 3 misses writes to `pages` distinct pages, spread over many checkpoints.
    cluster.net().SetNodeDown(3, true);
    uint64_t stamp = 1;
    uint64_t per_op = 8;
    for (uint64_t p = 0; p < pages; p += per_op) {
      cluster.Execute(client, PageWriterService::MakeOp(p, per_op, stamp++), false,
                      60 * kSecond);
    }
    // Run extra ops so the stable checkpoint moves past replica 3's log.
    for (int i = 0; i < 20; ++i) {
      cluster.Execute(client, PageWriterService::MakeOp(0, 1, stamp++), false, 60 * kSecond);
    }
    cluster.net().SetNodeDown(3, false);
    SimTime start = cluster.sim().Now();
    SeqNo target = cluster.replica(0)->last_executed();
    // Keep light traffic flowing (checkpoint certificates keep forming).
    uint64_t ticks = 0;
    while (cluster.replica(3)->last_executed() < target && ticks < 600) {
      cluster.Execute(client, PageWriterService::MakeOp(0, 1, stamp++), false, 60 * kSecond);
      cluster.sim().RunFor(10 * kMillisecond);
      ++ticks;
    }
    SimTime elapsed = cluster.sim().Now() - start;
    uint64_t fetched = cluster.replica(3)->stats().pages_fetched;
    double kb = static_cast<double>(fetched) * 4096.0 / 1024.0;
    double mbps = elapsed > 0 ? kb / 1024.0 / (static_cast<double>(elapsed) / kSecond) : 0.0;
    std::printf("%-14.0f %-12lu %16.1f %14.2f %12lu\n",
                static_cast<double>(pages) * 4096.0 / 1024.0, pages, ToMs(elapsed), mbps,
                fetched);
  }

  std::printf("\npaper shape checks:\n");
  std::printf("  - transfer time grows with the amount of out-of-date state; the rate\n");
  std::printf("    approaches a constant (wire + digest bound), as in the paper\n");
  std::printf("  - pages never touched are skipped via matching partition digests\n");
  return 0;
}
