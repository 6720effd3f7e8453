// Harness for the related-work comparison (Figure 22): wires one of the
// baseline protocol stacks (pFabric / QJump / Homa / D3 / PDQ) into a star
// topology with the scheduler that protocol assumes, plus the usual RPC
// stacks, metrics and generators. Aequitas itself runs through the regular
// runner::Experiment (WFQ + Swift + admission control).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/queue_factory.h"
#include "protocols/deadline_fabric.h"
#include "protocols/homa.h"
#include "protocols/pfabric.h"
#include "protocols/qjump.h"
#include "rpc/metrics.h"
#include "rpc/rpc_stack.h"
#include "runner/generators.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::runner {

enum class BaselineProtocol { kPfabric, kQjump, kHoma, kD3, kPdq };

const char* baseline_name(BaselineProtocol protocol);

struct ProtocolExperimentConfig {
  BaselineProtocol protocol = BaselineProtocol::kPfabric;
  std::size_t num_hosts = 33;
  sim::Rate link_rate = sim::gbps(100);
  sim::Time link_delay = 0.5 * sim::kUsec;
  std::size_t num_qos = 3;  // RPC priority space for SLO accounting
  rpc::SloConfig slo;
  std::uint32_t mtu_bytes = 4096;
  std::uint64_t seed = 1;

  // Protocol knobs (defaults follow each paper's guidance scaled to 100G).
  std::uint64_t pfabric_buffer_bytes = 160 * 1024;  // ~2.5 BDP
  std::uint32_t pfabric_window_packets = 16;
  std::vector<double> qjump_level_rate_fraction = {0.05, 0.20, 0.0};
  protocols::HomaConfig homa;
  sim::Time deadline_epoch = 20 * sim::kUsec;
};

class ProtocolExperiment {
 public:
  explicit ProtocolExperiment(const ProtocolExperimentConfig& config);

  sim::Simulator& simulator() { return sim_; }
  topo::Network& network() { return network_; }
  rpc::RpcMetrics& metrics() { return *metrics_; }
  rpc::RpcStack& stack(net::HostId id) {
    return *stacks_.at(static_cast<std::size_t>(id));
  }
  protocols::DeadlineFabric* fabric() { return fabric_.get(); }

  const workload::SizeDistribution* own(
      std::unique_ptr<workload::SizeDistribution> dist) {
    return generators_.own(std::move(dist));
  }
  workload::TrafficGenerator& add_generator(
      net::HostId id, const workload::GeneratorConfig& generator_config,
      workload::DestinationPicker picker = nullptr);

  void run(sim::Time warmup, sim::Time duration,
           sim::Time drain = 2 * sim::kMsec);

  // Offered payload bytes during [0, warmup+duration) vs delivered payload.
  double goodput_utilization() const;

  // Fraction of [0, now] the host downlinks spent transmitting — the
  // "achieved vs maximum goodput" proxy used for Figure 22 (terminated
  // flows leave the links idle).
  double mean_downlink_utilization() const {
    return network_.mean_downlink_utilization(sim_.now());
  }

 private:
  ProtocolExperimentConfig config_;
  sim::Simulator sim_;
  topo::Network network_;
  std::unique_ptr<protocols::DeadlineFabric> fabric_;
  std::unique_ptr<rpc::RpcMetrics> metrics_;
  rpc::AlwaysAdmit admission_;
  std::vector<std::unique_ptr<transport::MessageTransport>> transports_;
  std::vector<std::unique_ptr<rpc::RpcStack>> stacks_;
  Generators generators_;
};

}  // namespace aeq::runner
