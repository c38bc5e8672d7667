// Configuration-matrix sweep: the protocol must be correct (not merely fast) under every
// combination of group size and optimization flags — the optimizations are performance
// features and must never change semantics.
#include <gtest/gtest.h>

#include "src/service/counter_service.h"
#include "src/workload/cluster.h"

namespace bft {
namespace {

struct MatrixParam {
  int n;
  bool tentative;
  bool digest_replies;
  bool batching;
  bool read_only_opt;
};

std::string ParamName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const MatrixParam& p = info.param;
  std::string s = "n" + std::to_string(p.n);
  s += p.tentative ? "_tent" : "_notent";
  s += p.digest_replies ? "_dig" : "_nodig";
  s += p.batching ? "_batch" : "_nobatch";
  s += p.read_only_opt ? "_ro" : "_noro";
  return s;
}

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrixTest, CorrectUnderFaultAndLoad) {
  const MatrixParam& p = GetParam();
  ClusterOptions options;
  options.seed = static_cast<uint64_t>(p.n) * 1000 + (p.tentative ? 1 : 0) +
                 (p.digest_replies ? 2 : 0) + (p.batching ? 4 : 0) + (p.read_only_opt ? 8 : 0);
  options.config.n = p.n;
  options.config.tentative_execution = p.tentative;
  options.config.digest_replies = p.digest_replies;
  options.config.batching = p.batching;
  options.config.read_only_optimization = p.read_only_opt;
  options.config.checkpoint_period = 8;
  options.config.state_pages = 16;
  options.config.partition_branching = 4;
  Cluster cluster(options, [](NodeId) { return std::make_unique<CounterService>(); });

  // One Byzantine-silent replica (within the fault budget for every n here).
  cluster.replica(p.n - 1)->SetMute(true);

  // Two interleaved clients; sequential ops must be exactly-once whatever the config. Forty
  // ops, one sequence number each, run the log window (log_size() = 16) around twice.
  Client* a = cluster.AddClient();
  Client* b = cluster.AddClient();
  uint64_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    Client* c = (i % 2 == 0) ? a : b;
    std::optional<Bytes> result =
        cluster.Execute(c, CounterService::IncOp(), false, 120 * kSecond);
    ASSERT_TRUE(result.has_value()) << "op " << i;
    EXPECT_EQ(CounterService::DecodeValue(*result), ++expected);
  }
  // Read-only query agrees.
  std::optional<Bytes> value =
      cluster.Execute(a, CounterService::GetOp(), /*read_only=*/true, 120 * kSecond);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(CounterService::DecodeValue(*value), expected);
  EXPECT_GE(cluster.replica(0)->low_water(), 2 * options.config.log_size());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrixTest,
    ::testing::Values(
        MatrixParam{4, true, true, true, true}, MatrixParam{4, false, true, true, true},
        MatrixParam{4, true, false, true, true}, MatrixParam{4, true, true, false, true},
        MatrixParam{4, true, true, true, false}, MatrixParam{4, false, false, false, false},
        MatrixParam{7, true, true, true, true}, MatrixParam{7, false, false, false, false},
        MatrixParam{10, true, true, true, true}),
    ParamName);

}  // namespace
}  // namespace bft
