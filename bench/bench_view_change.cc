// E9 — View-change latency (thesis Section 8.5): time from silencing the primary until a
// correct replica enters the new view and service resumes.
#include "bench/bench_util.h"
#include "src/service/counter_service.h"

using namespace bft;

int main() {
  PrintHeader("E9", "view-change latency");

  std::printf("%-8s %22s %24s\n", "round", "view-change (ms)", "incl. fault timeout (ms)");
  double sum_vc = 0;
  int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    ClusterOptions options = BenchOptions(900 + static_cast<uint64_t>(round));
    options.config.view_change_timeout = 25 * kMillisecond;
    Cluster cluster(options, [](NodeId) { return std::make_unique<CounterService>(); });
    Client* client = cluster.AddClient();
    cluster.Execute(client, CounterService::IncOp());

    NodeId primary = cluster.CurrentPrimary();
    cluster.replica(static_cast<int>(primary))->SetMute(true);
    SimTime fault_at = cluster.sim().Now();

    // Issue an op; it stalls until the view change completes.
    bool done = false;
    client->Invoke(CounterService::IncOp(), false, [&done](Bytes) { done = true; });

    // Measure from the first view-change message (timer expiry) to new-view entry.
    int observer = primary == 1 ? 2 : 1;
    Replica* rep = cluster.replica(observer);
    cluster.sim().RunUntilCondition(
        [rep]() { return rep->stats().view_changes_started > 0; },
        cluster.sim().Now() + 120 * kSecond);
    SimTime vc_start = cluster.sim().Now();
    cluster.sim().RunUntilCondition([rep]() { return rep->stats().new_views_entered > 0; },
                                    cluster.sim().Now() + 120 * kSecond);
    SimTime vc_end = cluster.sim().Now();
    cluster.sim().RunUntilCondition([&done]() { return done; },
                                    cluster.sim().Now() + 120 * kSecond);

    double vc_ms = ToMs(vc_end - vc_start);
    sum_vc += vc_ms;
    std::printf("%-8d %22.2f %24.2f\n", round, vc_ms, ToMs(vc_end - fault_at));
  }
  std::printf("\nmean view-change time (excluding the detection timeout): %.2f ms\n",
              sum_vc / rounds);
  std::printf("\npaper shape checks:\n");
  std::printf("  - the protocol itself completes in single-digit milliseconds; total\n");
  std::printf("    unavailability is dominated by the fault-detection timeout, as in the\n");
  std::printf("    paper's measurements\n");
  return 0;
}
