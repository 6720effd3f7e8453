// Tests for the baseline protocol stacks: pFabric SRPT behaviour, QJump
// host rate limiting, Homa grants and priorities, and the D3/PDQ deadline
// fabric (allocation, pausing, termination).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "policy/spec.h"
#include "runner/experiment.h"

namespace aeq::protocols {
namespace {

using runner::BaselineProtocol;
using runner::Experiment;

runner::ExperimentConfig base_config(BaselineProtocol protocol,
                                     std::size_t hosts = 3) {
  runner::ExperimentConfig config;
  config.baseline = protocol;
  config.admission.kind = policy::kAlwaysAdmit;
  config.num_hosts = hosts;
  config.num_qos = 3;
  config.slo = rpc::SloConfig::make(
      {15 * sim::kUsec, 25 * sim::kUsec, 0.0}, 99.9);
  // pFabric's shallow per-port buffer: ~2.5 BDP at 100G.
  if (protocol == BaselineProtocol::kPfabric) config.buffer_bytes = 160 * 1024;
  return config;
}

TEST(PfabricTest, SingleMessageCompletes) {
  Experiment experiment(base_config(BaselineProtocol::kPfabric));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kPC, 32 * sim::kKiB);
  experiment.simulator().run();
  EXPECT_EQ(done.bytes, 32 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
  EXPECT_GT(done.rnl, 0.0);
  EXPECT_LT(done.rnl, 50 * sim::kUsec);
}

TEST(PfabricTest, SmallMessageBeatsLargeUnderContention) {
  // Start a huge transfer, then a small one on the same bottleneck: SRPT
  // should let the small message finish almost as if the link were idle.
  Experiment experiment(base_config(BaselineProtocol::kPfabric));
  sim::Time small_rnl = 0.0;
  experiment.stack(0).issue(2, rpc::Priority::kBE, 8 * sim::kMiB);
  experiment.stack(1).set_completion_listener(
      [&](const rpc::RpcRecord& r) { small_rnl = r.rnl; });
  experiment.simulator().schedule_in(50 * sim::kUsec, [&] {
    experiment.stack(1).issue(2, rpc::Priority::kPC, 16 * sim::kKiB);
  });
  experiment.simulator().run_until(5 * sim::kMsec);
  EXPECT_GT(small_rnl, 0.0);
  EXPECT_LT(small_rnl, 30 * sim::kUsec);
}

TEST(PfabricTest, SurvivesTinyBufferDrops) {
  auto config = base_config(BaselineProtocol::kPfabric);
  config.buffer_bytes = 32 * 1024;  // 8 packets
  Experiment experiment(config);
  int done = 0;
  for (net::HostId src : {0, 1}) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord&) { ++done; });
    experiment.stack(src).issue(2, rpc::Priority::kPC, 1 * sim::kMiB);
  }
  experiment.simulator().run_until(50 * sim::kMsec);
  EXPECT_EQ(done, 2);
  EXPECT_GT(experiment.network()
                .downlink(2)
                .queue()
                .stats()
                .dropped_packets,
            0u);
}

TEST(QjumpTest, HighLevelRateLimited) {
  auto config = base_config(BaselineProtocol::kQjump);
  config.qjump_level_rate_fraction = {0.05, 0.20, 0.0};
  Experiment experiment(config);
  sim::Time done_at = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done_at = r.completed; });
  // 1MB on the 5Gbps-limited top level: >= 1.6ms just to serialize.
  experiment.stack(0).issue(1, rpc::Priority::kPC, 1 * sim::kMiB);
  experiment.simulator().run();
  EXPECT_GT(done_at, 1.6 * sim::kMsec);
}

TEST(QjumpTest, UnthrottledLowLevelRunsAtLineRate) {
  Experiment experiment(base_config(BaselineProtocol::kQjump));
  sim::Time done_at = 0.0;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done_at = r.completed; });
  experiment.stack(0).issue(1, rpc::Priority::kBE, 1 * sim::kMiB);
  experiment.simulator().run();
  // 1MB at 100G is ~84us serialization + RTT.
  EXPECT_LT(done_at, 300 * sim::kUsec);
}

TEST(HomaTest, MessageLargerThanRttBytesNeedsGrants) {
  Experiment experiment(base_config(BaselineProtocol::kHoma));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kNC, 512 * sim::kKiB);
  experiment.simulator().run();
  EXPECT_EQ(done.bytes, 512 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
}

TEST(HomaTest, SmallMessagePreferredUnderContention) {
  Experiment experiment(base_config(BaselineProtocol::kHoma));
  sim::Time small_rnl = 0.0;
  experiment.stack(0).issue(2, rpc::Priority::kBE, 4 * sim::kMiB);
  experiment.stack(1).set_completion_listener(
      [&](const rpc::RpcRecord& r) { small_rnl = r.rnl; });
  experiment.simulator().schedule_in(100 * sim::kUsec, [&] {
    experiment.stack(1).issue(2, rpc::Priority::kPC, 8 * sim::kKiB);
  });
  experiment.simulator().run_until(20 * sim::kMsec);
  EXPECT_GT(small_rnl, 0.0);
  EXPECT_LT(small_rnl, 30 * sim::kUsec);
}

TEST(DeadlineFabricTest, D3GrantsRequestedRatesFcfs) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kD3, 100.0, 10 * sim::kUsec);
  std::vector<double> rates(2, -1.0);
  std::vector<bool> killed(2, false);
  // Flow 0 wants 80, flow 1 wants 50: FCFS grants 80 then 20(+base).
  fabric.register_flow(1, 0, /*deadline=*/1.0, /*remaining=*/80,
                       [&](double r, bool t) { rates[0] = r; killed[0] = t; });
  fabric.register_flow(2, 0, 1.0, 50,
                       [&](double r, bool t) { rates[1] = r; killed[1] = t; });
  s.run_until(15 * sim::kUsec);
  EXPECT_FALSE(killed[0]);
  EXPECT_GE(rates[0], 80.0 / 1.0 * 0.9);  // desired ~80 bytes/sec
  EXPECT_GE(rates[1], 0.0);
}

TEST(DeadlineFabricTest, D3TerminatesInfeasibleDeadline) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kD3, 100.0, 10 * sim::kUsec);
  bool killed_late = false;
  // Needs 10000 bytes in 1s over a 100 B/s link: infeasible even alone.
  fabric.register_flow(1, 0, 1.0, 10000,
                       [&](double, bool t) { killed_late |= t; });
  s.run_until(50 * sim::kUsec);
  EXPECT_TRUE(killed_late);
  EXPECT_GE(fabric.flows_terminated(), 1u);
}

TEST(DeadlineFabricTest, PdqServesEarliestDeadlineFirst) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kPdq, 100.0, 10 * sim::kUsec);
  double rate_late = -1.0, rate_early = -1.0;
  fabric.register_flow(1, 0, /*deadline=*/2.0, /*remaining=*/50,
                       [&](double r, bool) { rate_late = r; });
  fabric.register_flow(2, 0, /*deadline=*/1.0, 50,
                       [&](double r, bool) { rate_early = r; });
  s.run_until(15 * sim::kUsec);
  EXPECT_DOUBLE_EQ(rate_early, 100.0);  // head of EDF: full rate
  EXPECT_LT(rate_late, 5.0);            // probe rate or paused
}

TEST(DeadlineFabricTest, PdqTerminatesFlowsThatCannotMakeIt) {
  sim::Simulator s;
  DeadlineFabric fabric(s, DeadlineMode::kPdq, 100.0, 10 * sim::kUsec);
  bool killed = false;
  fabric.register_flow(1, 0, 1.0, 90, [](double, bool) {});
  // Behind 0.9s of work, needs to finish 90 bytes by t=1.0: infeasible.
  fabric.register_flow(2, 0, 1.0, 90,
                       [&](double, bool t) { killed |= t; });
  s.run_until(15 * sim::kUsec);
  EXPECT_TRUE(killed);
}

TEST(D3Test, EndToEndCompletesWithDeadline) {
  Experiment experiment(base_config(BaselineProtocol::kD3));
  rpc::RpcRecord done;
  experiment.stack(0).set_completion_listener(
      [&](const rpc::RpcRecord& r) { done = r; });
  experiment.stack(0).issue(1, rpc::Priority::kPC, 64 * sim::kKiB,
                            /*deadline_budget=*/1 * sim::kMsec);
  experiment.simulator().run_until(5 * sim::kMsec);
  EXPECT_EQ(done.bytes, 64 * sim::kKiB);
  EXPECT_FALSE(done.terminated);
}

TEST(D3Test, OverloadTerminatesSomeDeadlineFlows) {
  Experiment experiment(base_config(BaselineProtocol::kD3, 5));
  int terminated = 0, completed = 0;
  for (net::HostId src = 0; src < 4; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          r.terminated ? ++terminated : ++completed;
        });
    // 4 x 2MB to one host with 300us deadlines: ~650us of serialization
    // demand; most cannot make it.
    experiment.stack(src).issue(4, rpc::Priority::kPC, 2 * sim::kMiB,
                                300 * sim::kUsec);
  }
  experiment.simulator().run_until(10 * sim::kMsec);
  EXPECT_GT(terminated, 0);
  EXPECT_EQ(terminated + completed, 4);
}

TEST(PdqTest, EndToEndPreemptionStillCompletesAll) {
  Experiment experiment(base_config(BaselineProtocol::kPdq, 4));
  int completed = 0, terminated = 0;
  for (net::HostId src = 0; src < 3; ++src) {
    experiment.stack(src).set_completion_listener(
        [&](const rpc::RpcRecord& r) {
          r.terminated ? ++terminated : ++completed;
        });
    experiment.stack(src).issue(3, rpc::Priority::kPC, 256 * sim::kKiB,
                                (src + 1) * 1 * sim::kMsec);
  }
  experiment.simulator().run_until(20 * sim::kMsec);
  // Generous staggered deadlines: EDF should complete all three.
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(terminated, 0);
}

// Offered payload bytes over the run vs delivered payload, capped at 1.
double goodput_utilization(const rpc::RpcMetrics& metrics) {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (net::QoSLevel qos = 0; qos < 3; ++qos) {
    offered += metrics.bytes_requested(qos);
    delivered += metrics.bytes_completed(qos);
  }
  if (offered == 0) return 0.0;
  return std::min(1.0, static_cast<double>(delivered) /
                           static_cast<double>(offered));
}

TEST(BaselineStackTest, GoodputUtilizationBounded) {
  Experiment experiment(base_config(BaselineProtocol::kPfabric));
  const auto* sizes = experiment.own(
      std::make_unique<workload::FixedSize>(32 * sim::kKiB));
  workload::GeneratorConfig gen;
  gen.classes = {{rpc::Priority::kPC, 0.3 * sim::gbps(100), sizes, 0.0}};
  experiment.add_generator(0, gen, workload::fixed_destination(2));
  experiment.run(1 * sim::kMsec, 5 * sim::kMsec);
  EXPECT_GT(goodput_utilization(experiment.metrics()), 0.9);
  EXPECT_LE(goodput_utilization(experiment.metrics()), 1.0);
}

}  // namespace
}  // namespace aeq::protocols
