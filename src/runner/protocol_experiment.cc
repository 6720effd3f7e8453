#include "runner/protocol_experiment.h"

#include <algorithm>
#include <utility>

#include "protocols/deadline_transport.h"
#include "sim/assert.h"

namespace aeq::runner {

const char* baseline_name(BaselineProtocol protocol) {
  switch (protocol) {
    case BaselineProtocol::kPfabric: return "pFabric";
    case BaselineProtocol::kQjump: return "QJump";
    case BaselineProtocol::kHoma: return "Homa";
    case BaselineProtocol::kD3: return "D3";
    case BaselineProtocol::kPdq: return "PDQ";
  }
  return "?";
}

namespace {

net::QueueConfig queue_for(const ProtocolExperimentConfig& config) {
  net::QueueConfig queue;
  switch (config.protocol) {
    case BaselineProtocol::kPfabric:
      queue.type = net::SchedulerType::kPfabric;
      queue.capacity_bytes = config.pfabric_buffer_bytes;
      break;
    case BaselineProtocol::kQjump:
      queue.type = net::SchedulerType::kSpq;
      queue.weights.assign(config.num_qos, 1.0);  // class count only
      queue.capacity_bytes = 8 * sim::kMiB;
      break;
    case BaselineProtocol::kHoma:
      queue.type = net::SchedulerType::kSpq;
      queue.weights.assign(config.homa.num_levels, 1.0);
      queue.capacity_bytes = 8 * sim::kMiB;
      break;
    case BaselineProtocol::kD3:
    case BaselineProtocol::kPdq:
      queue.type = net::SchedulerType::kFifo;
      queue.capacity_bytes = 8 * sim::kMiB;
      break;
  }
  return queue;
}

}  // namespace

ProtocolExperiment::ProtocolExperiment(
    const ProtocolExperimentConfig& config)
    : config_(config) {
  AEQ_ASSERT(config_.slo.num_qos() == config_.num_qos);

  topo::StarConfig star;
  star.num_hosts = config_.num_hosts;
  star.link_rate = config_.link_rate;
  star.link_delay = config_.link_delay;
  star.host_queue = queue_for(config_);
  star.switch_queue = star.host_queue;
  network_ = topo::build_star(sim_, star);

  metrics_ = std::make_unique<rpc::RpcMetrics>(config_.num_qos, config_.slo,
                                               network_.num_hosts());

  if (config_.protocol == BaselineProtocol::kD3 ||
      config_.protocol == BaselineProtocol::kPdq) {
    fabric_ = std::make_unique<protocols::DeadlineFabric>(
        sim_,
        config_.protocol == BaselineProtocol::kD3
            ? protocols::DeadlineMode::kD3
            : protocols::DeadlineMode::kPdq,
        config_.link_rate, config_.deadline_epoch);
  }

  rpc::RpcStackConfig stack_config;
  stack_config.num_qos = config_.num_qos;
  stack_config.mtu_bytes = config_.mtu_bytes;

  protocols::BaseTransportConfig base;
  base.mtu_bytes = config_.mtu_bytes;

  for (std::size_t i = 0; i < network_.num_hosts(); ++i) {
    const auto id = static_cast<net::HostId>(i);
    net::Host& host = network_.host(id);
    std::unique_ptr<transport::MessageTransport> transport;
    switch (config_.protocol) {
      case BaselineProtocol::kPfabric: {
        protocols::PfabricConfig pf;
        pf.base = base;
        pf.base.rto = 100 * sim::kUsec;  // aggressive, per pFabric's design
        pf.window_packets = config_.pfabric_window_packets;
        transport =
            std::make_unique<protocols::PfabricTransport>(sim_, host, pf);
        break;
      }
      case BaselineProtocol::kQjump: {
        protocols::QjumpConfig qj;
        qj.base = base;
        for (double fraction : config_.qjump_level_rate_fraction) {
          qj.level_rate.push_back(fraction <= 0.0
                                      ? 0.0
                                      : fraction * config_.link_rate);
        }
        transport =
            std::make_unique<protocols::QjumpTransport>(sim_, host, qj);
        break;
      }
      case BaselineProtocol::kHoma: {
        protocols::HomaConfig homa = config_.homa;
        homa.base = base;
        transport =
            std::make_unique<protocols::HomaTransport>(sim_, host, homa);
        break;
      }
      case BaselineProtocol::kD3:
      case BaselineProtocol::kPdq: {
        protocols::BaseTransportConfig dl = base;
        dl.rto = 1 * sim::kMsec;  // rate-paced; recovery is rare
        transport = std::make_unique<protocols::DeadlineTransport>(
            sim_, host, *fabric_, dl);
        break;
      }
    }
    transports_.push_back(std::move(transport));
    stacks_.push_back(std::make_unique<rpc::RpcStack>(
        sim_, id, *transports_.back(), admission_, *metrics_,
        stack_config));
  }
}

workload::TrafficGenerator& ProtocolExperiment::add_generator(
    net::HostId id, const workload::GeneratorConfig& generator_config,
    workload::DestinationPicker picker) {
  return generators_.add(sim_, stack(id), network_.num_hosts(), id,
                         config_.seed, generator_config, std::move(picker));
}

void ProtocolExperiment::run(sim::Time warmup, sim::Time duration,
                             sim::Time drain) {
  metrics_->set_warmup(warmup);
  generators_.run(sim_.now(), warmup + duration);
  sim_.run_until(warmup + duration);
  sim_.run_until(warmup + duration + drain);
}

double ProtocolExperiment::goodput_utilization() const {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  for (std::size_t q = 0; q < config_.num_qos; ++q) {
    const auto qos = static_cast<net::QoSLevel>(q);
    offered += metrics_->bytes_requested(qos);
    delivered += metrics_->bytes_completed(qos);
  }
  if (offered == 0) return 0.0;
  return std::min(1.0, static_cast<double>(delivered) /
                           static_cast<double>(offered));
}

}  // namespace aeq::runner
