// Owning container for a built topology: hosts, switches, and convenience
// accessors for the instrumented ports (each host's downlink is the usual
// oversubscription point in the paper's experiments).
#pragma once

#include <memory>
#include <vector>

#include "net/host.h"
#include "net/shard_fabric.h"
#include "net/shared_buffer.h"
#include "net/switch.h"

namespace aeq::topo {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  net::Host& host(net::HostId id) {
    return *hosts_.at(static_cast<std::size_t>(id));
  }
  const net::Host& host(net::HostId id) const {
    return *hosts_.at(static_cast<std::size_t>(id));
  }
  std::size_t num_hosts() const { return hosts_.size(); }

  net::Switch& fabric_switch(std::size_t i) { return *switches_.at(i); }
  const net::Switch& fabric_switch(std::size_t i) const {
    return *switches_.at(i);
  }
  std::size_t num_switches() const { return switches_.size(); }

  // The switch egress port that feeds host `id` (its downlink).
  net::Port& downlink(net::HostId id) {
    return *downlinks_.at(static_cast<std::size_t>(id));
  }
  const net::Port& downlink(net::HostId id) const {
    return *downlinks_.at(static_cast<std::size_t>(id));
  }

  // Mean utilization of the host downlinks over [0, now]; 0 at time 0.
  double mean_downlink_utilization(sim::Time now) const;

  // A shared buffer pool together with the (pooled) queues drawing on it,
  // recorded by the topology builders so the audit layer can state pool
  // conservation: pool.used == sum of member backlogs.
  struct PoolGroup {
    net::SharedBufferPool* pool = nullptr;
    std::vector<const net::QueueDiscipline*> members;
  };
  const std::vector<PoolGroup>& pool_groups() const { return pool_groups_; }

  // The star's NIC-to-switch packet fabric (topo::build_star, at any shard
  // count); null for topologies whose NICs deliver straight to a switch.
  net::ShardFabric* shard_fabric() { return shard_fabric_.get(); }
  const net::ShardFabric* shard_fabric() const { return shard_fabric_.get(); }

  // Builder API.
  net::Host* add_host(std::unique_ptr<net::Host> host);
  net::Switch* add_switch(std::unique_ptr<net::Switch> sw);
  void register_downlink(net::Port* port) { downlinks_.push_back(port); }
  net::SharedBufferPool* add_buffer_pool(
      std::unique_ptr<net::SharedBufferPool> pool) {
    pools_.push_back(std::move(pool));
    return pools_.back().get();
  }
  void register_pool_member(net::SharedBufferPool* pool,
                            const net::QueueDiscipline* queue) {
    for (PoolGroup& group : pool_groups_) {
      if (group.pool == pool) {
        group.members.push_back(queue);
        return;
      }
    }
    pool_groups_.push_back(PoolGroup{pool, {queue}});
  }
  void set_shard_fabric(std::unique_ptr<net::ShardFabric> fabric) {
    shard_fabric_ = std::move(fabric);
  }

 private:
  std::unique_ptr<net::ShardFabric> shard_fabric_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<std::unique_ptr<net::SharedBufferPool>> pools_;
  std::vector<net::Port*> downlinks_;  // indexed by host id
  std::vector<PoolGroup> pool_groups_;
};

}  // namespace aeq::topo
