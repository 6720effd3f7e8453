// Traffic-generator wiring shared by runner::Experiment and
// runner::ProtocolExperiment, so the seed rule that fixes every figure's
// arrival schedule lives in one place.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "rpc/rpc_stack.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/size_dist.h"

namespace aeq::runner {

// Owns a harness's size distributions and traffic generators.
class Generators {
 public:
  // Registers and owns a size distribution for the harness's lifetime.
  const workload::SizeDistribution* own(
      std::unique_ptr<workload::SizeDistribution> dist) {
    dists_.push_back(std::move(dist));
    return dists_.back().get();
  }

  // Attaches a generator to host `id` of `num_hosts`, scheduling on `sim`;
  // destinations default to uniform all-to-all. Host `id` draws from
  // seed * 7919 + id + 1 whatever harness or shard count runs it.
  workload::TrafficGenerator& add(
      sim::Simulator& sim, rpc::RpcStack& stack, std::size_t num_hosts,
      net::HostId id, std::uint64_t seed,
      const workload::GeneratorConfig& generator_config,
      workload::DestinationPicker picker) {
    if (!picker) picker = workload::uniform_destinations(num_hosts, id);
    sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(id) + 1);
    generators_.push_back(std::make_unique<workload::TrafficGenerator>(
        sim, stack, std::move(picker), generator_config, rng));
    return *generators_.back();
  }

  // Starts every generator over [start, end).
  void run(sim::Time start, sim::Time end) {
    for (auto& generator : generators_) generator->run(start, end);
  }

 private:
  std::vector<std::unique_ptr<workload::SizeDistribution>> dists_;
  std::vector<std::unique_ptr<workload::TrafficGenerator>> generators_;
};

}  // namespace aeq::runner
