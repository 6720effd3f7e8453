// Topology builders.
//
// `build_star` is the paper's workhorse: N hosts on a single switch, so each
// host downlink is a WFQ bottleneck under all-to-all fan-in (the 3-node,
// 20-node, 33-node and 144-node setups are all stars in our reproduction).
// `build_leaf_spine` provides a two-tier fabric with ECMP so overloads can
// also form on uplinks (paper §2.2.2 stresses that overloads occur anywhere).
#pragma once

#include <cstddef>
#include <vector>

#include "net/queue_factory.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "topo/network.h"

namespace aeq::topo {

struct StarConfig {
  std::size_t num_hosts = 3;
  sim::Rate link_rate = sim::gbps(100);
  sim::Time link_delay = 0.5 * sim::kUsec;
  net::QueueConfig host_queue;    // host NIC egress discipline
  net::QueueConfig switch_queue;  // switch egress (downlink) discipline
  // When set, the switch's egress queues share one buffer pool of this many
  // bytes with Dynamic-Threshold admission (paper footnote 2) instead of
  // independent per-port capacities.
  std::uint64_t shared_buffer_bytes = 0;
  double shared_buffer_alpha = 1.0;
};

// Builds the star of `config` across `sims`, one shard per simulator; one
// simulator is the serial run (`build_star({&sim}, config)`). Shard k owns
// the contiguous host block [k*B, (k+1)*B), B = ceil(num_hosts / K) —
// all-to-all workloads are symmetric, so contiguous blocks balance load as
// well as any assignment — plus its own switch ("tor" with one shard,
// "tor-shard<k>" above that) carrying exactly those hosts' downlinks, all
// on sims[k]. Every NIC uplink hands its packets to the network's
// net::ShardFabric, which lands same-shard packets at once and mails
// cross-shard ones to the next barrier. Host ids, downlink registration
// order and per-host wiring do not depend on the shard count, so
// everything indexed by host id (metrics, audits, telemetry port names)
// does not either.
//
// Above one shard the cut edges are the NIC->switch hops, so `link_delay`
// is the executive's lookahead and must be positive; a shared buffer pool
// spans every downlink and needs the one-shard star.
Network build_star(const std::vector<sim::Simulator*>& sims,
                   const StarConfig& config);

struct LeafSpineConfig {
  std::size_t hosts_per_leaf = 8;
  std::size_t num_leaves = 4;
  std::size_t num_spines = 2;
  sim::Rate edge_rate = sim::gbps(100);
  sim::Rate fabric_rate = sim::gbps(100);  // per uplink; oversubscription =
                                           // hosts_per_leaf*edge /
                                           // (num_spines*fabric)
  sim::Time link_delay = 0.5 * sim::kUsec;
  net::QueueConfig host_queue;
  net::QueueConfig switch_queue;
};

Network build_leaf_spine(sim::Simulator& simulator,
                         const LeafSpineConfig& config);

}  // namespace aeq::topo
