#include "topo/builders.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/shard_fabric.h"
#include "net/shared_buffer.h"

#include "sim/assert.h"

namespace aeq::topo {

namespace {

std::unique_ptr<net::Port> make_port(sim::Simulator& simulator,
                                     sim::Rate rate, sim::Time delay,
                                     const net::QueueConfig& queue) {
  return std::make_unique<net::Port>(simulator, rate, delay,
                                     net::make_queue(queue));
}

}  // namespace

Network build_star(const std::vector<sim::Simulator*>& sims,
                   const StarConfig& config) {
  const std::size_t shards = sims.size();
  AEQ_CHECK_GE(config.num_hosts, 2u);
  AEQ_CHECK_GE(shards, 1u);
  AEQ_CHECK_GE(config.num_hosts, shards);
  if (shards > 1) {
    AEQ_ASSERT_MSG(config.link_delay > 0.0 &&
                       config.link_delay <
                           std::numeric_limits<sim::Time>::infinity(),
                   "sharding requires a positive cross-shard link delay");
    AEQ_ASSERT_MSG(config.shared_buffer_bytes == 0,
                   "shared switch buffers span all downlinks and cannot be "
                   "partitioned across shards");
  }

  const std::size_t block = (config.num_hosts + shards - 1) / shards;
  std::vector<std::uint32_t> shard_of_host(config.num_hosts);
  for (std::size_t h = 0; h < config.num_hosts; ++h) {
    shard_of_host[h] = static_cast<std::uint32_t>(h / block);
  }

  Network network;
  auto fabric = std::make_unique<net::ShardFabric>(sims, shard_of_host);
  std::vector<net::Switch*> switches;
  switches.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    switches.push_back(network.add_switch(std::make_unique<net::Switch>(
        shards == 1 ? "tor" : "tor-shard" + std::to_string(k))));
    fabric->set_local_switch(k, switches.back());
  }
  net::SharedBufferPool* pool = nullptr;
  if (config.shared_buffer_bytes != 0) {
    pool = network.add_buffer_pool(std::make_unique<net::SharedBufferPool>(
        config.shared_buffer_bytes, config.shared_buffer_alpha));
  }

  // Hosts in global id order; the NIC hands packets to its shard's link at
  // serialization end instead of scheduling delivery itself — the
  // propagation leg is what the cut's lookahead is made of.
  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    const std::uint32_t shard = shard_of_host[i];
    auto uplink = make_port(*sims[shard], config.link_rate, config.link_delay,
                            config.host_queue);
    uplink->connect(fabric->nic_link(shard));
    network.add_host(std::make_unique<net::Host>(id, std::move(uplink)));
  }
  // Downlinks in global host order (register_downlink is indexed by host
  // id), each on its owner's switch and simulator; a switch only routes its
  // own hosts because the fabric never hands it foreign packets.
  for (std::size_t i = 0; i < config.num_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    const std::uint32_t shard = shard_of_host[i];
    std::unique_ptr<net::QueueDiscipline> queue =
        net::make_queue(config.switch_queue);
    if (pool != nullptr) {
      queue = std::make_unique<net::PooledQueue>(std::move(queue), *pool);
    }
    auto downlink = std::make_unique<net::Port>(
        *sims[shard], config.link_rate, config.link_delay, std::move(queue));
    downlink->connect(&network.host(id));
    net::Switch& sw = *switches[shard];
    const std::size_t port = sw.add_port(std::move(downlink));
    sw.set_route(id, port);
    network.register_downlink(&sw.port(port));
    if (pool != nullptr) {
      network.register_pool_member(pool, &sw.port(port).queue());
    }
  }
  network.set_shard_fabric(std::move(fabric));
  return network;
}

Network build_leaf_spine(sim::Simulator& simulator,
                         const LeafSpineConfig& config) {
  AEQ_CHECK_GE(config.hosts_per_leaf, 1u);
  AEQ_CHECK_GE(config.num_leaves, 2u);
  AEQ_CHECK_GE(config.num_spines, 1u);
  Network network;
  const std::size_t total_hosts = config.hosts_per_leaf * config.num_leaves;

  std::vector<net::Switch*> leaves;
  std::vector<net::Switch*> spines;
  for (std::size_t l = 0; l < config.num_leaves; ++l) {
    leaves.push_back(network.add_switch(
        std::make_unique<net::Switch>("leaf" + std::to_string(l))));
  }
  for (std::size_t s = 0; s < config.num_spines; ++s) {
    spines.push_back(network.add_switch(
        std::make_unique<net::Switch>("spine" + std::to_string(s))));
  }

  // Hosts and their uplinks into the owning leaf.
  for (std::size_t i = 0; i < total_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    auto uplink = make_port(simulator, config.edge_rate, config.link_delay,
                            config.host_queue);
    uplink->connect(leaves[i / config.hosts_per_leaf]);
    network.add_host(std::make_unique<net::Host>(id, std::move(uplink)));
  }

  // Leaf downlinks to hosts.
  for (std::size_t i = 0; i < total_hosts; ++i) {
    const auto id = static_cast<net::HostId>(i);
    net::Switch* leaf = leaves[i / config.hosts_per_leaf];
    auto downlink = make_port(simulator, config.edge_rate, config.link_delay,
                              config.switch_queue);
    downlink->connect(&network.host(id));
    const std::size_t port = leaf->add_port(std::move(downlink));
    leaf->set_route(id, port);
    network.register_downlink(&leaf->port(port));
  }

  // Leaf <-> spine wiring.
  for (std::size_t l = 0; l < config.num_leaves; ++l) {
    std::vector<std::size_t> uplink_ports;
    for (std::size_t s = 0; s < config.num_spines; ++s) {
      auto up = make_port(simulator, config.fabric_rate, config.link_delay,
                          config.switch_queue);
      up->connect(spines[s]);
      uplink_ports.push_back(leaves[l]->add_port(std::move(up)));

      auto down = make_port(simulator, config.fabric_rate, config.link_delay,
                            config.switch_queue);
      down->connect(leaves[l]);
      const std::size_t spine_port = spines[s]->add_port(std::move(down));
      // The spine routes every host under leaf l out of this port.
      for (std::size_t i = 0; i < config.hosts_per_leaf; ++i) {
        spines[s]->set_route(
            static_cast<net::HostId>(l * config.hosts_per_leaf + i),
            spine_port);
      }
    }
    // The leaf ECMPs remote destinations across its uplinks.
    for (std::size_t i = 0; i < total_hosts; ++i) {
      if (i / config.hosts_per_leaf == l) continue;
      leaves[l]->set_ecmp_route(static_cast<net::HostId>(i), uplink_ports);
    }
  }
  return network;
}

}  // namespace aeq::topo
