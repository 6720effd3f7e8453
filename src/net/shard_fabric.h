// Packet fabric between host NICs and the star's switches, at any shard
// count (sim::ShardedSimulator; one shard is the serial run).
//
// A shard owns a group of hosts plus the switch egress ports that feed
// them, so the only traffic that can cross a shard boundary is a host NIC
// transmitting toward a switch owned by another shard. The fabric models
// that hop for every NIC, whether or not it crosses:
//
//   * Every NIC egress port runs in LinkReceiver handoff mode (see
//     net::Port): at serialization end it hands (packet, arrival time =
//     tx-end + propagation) to its shard's link object.
//   * Same-shard packets — all of them with one shard — are landed
//     immediately: a slot in the shard's arrival pool plus one event at the
//     arrival time (the event captures {pool, slot} — 16 bytes, well inside
//     the scheduler's 48-byte inline handler budget, which is why packets
//     are never captured directly).
//   * Cross-shard packets go into the (src, dst) SPSC mailbox — a
//     util::SpscChannel plus a producer-owned overflow vector so nothing is
//     ever dropped — and are drained at the next lookahead barrier by the
//     coordinator, in fixed (destination, source, FIFO) order, into the
//     destination shard's arrival pool. Arrival timestamps exceed the
//     barrier horizon by construction (propagation >= lookahead), so the
//     handoff never schedules into a shard's past. A shard has no mailbox
//     to itself, so one shard has none at all.
//
// Event budget: one tx-end event on the sending shard plus one arrival
// event on the receiving shard per packet, at every shard count (the
// "cross-shard event identity" pinned by BENCH_hotpath.json).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/port.h"
#include "net/switch.h"
#include "sim/assert.h"
#include "sim/simulator.h"
#include "util/spsc_channel.h"

namespace aeq::net {

class ShardFabric {
 public:
  // `sims[k]` is shard k's executive; `shard_of_host[h]` maps each host id
  // to its owning shard.
  ShardFabric(std::vector<sim::Simulator*> sims,
              std::vector<std::uint32_t> shard_of_host);

  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  std::size_t num_shards() const { return sims_.size(); }
  std::uint32_t shard_of(HostId host) const {
    return shard_of_host_.at(static_cast<std::size_t>(host));
  }

  // Topology wiring (called by topo::build_star): the switch whose egress
  // ports shard `k` owns, i.e. where shard-k-bound packets land.
  void set_local_switch(std::size_t shard, Switch* sw);

  // The LinkReceiver every NIC egress port of shard `k` connects to.
  LinkReceiver* nic_link(std::size_t shard);

  // Pre-sizes every shard's arrival pool for this many packets in
  // propagation at once, so steady-state landing never grows storage.
  void reserve_packets(std::size_t packets);

  // Barrier callback: drains every mailbox into its destination shard, in
  // (destination, source, FIFO) order. Must only run while all shard
  // workers are parked (sim::ShardedSimulator::set_barrier_callback).
  void drain_all();

  // True when no handed-over packet is waiting in a mailbox.
  bool idle() const;

  // --- diagnostics (sum per-mailbox counters; each counter is written only
  // by its single producer thread, so read these only while the shard
  // workers are parked — between run_until calls or at a barrier) ---
  std::uint64_t cross_shard_packets() const;
  // Pushes that missed the SPSC ring and took the overflow vector; a large
  // count means kMailboxCapacity is undersized for the traffic matrix.
  std::uint64_t mailbox_overflows() const;
  // Deepest any single (src, dst) mailbox got between barriers (ring +
  // overflow, sampled at push time): the executive's peak cross-shard
  // backlog, reported in the --prof executive section.
  std::uint64_t mailbox_depth_hwm() const;

 private:
  // Slots per SPSC ring; messages beyond it spill to the overflow vector
  // (correct, just slower).
  static constexpr std::size_t kMailboxCapacity = 4096;

  struct StampedPacket {
    sim::Time arrival = 0.0;
    Packet packet;
  };

  // Per-shard pool of in-flight arrivals: the scheduled event captures only
  // {pool pointer, slot index}; slots are recycled through a free list so
  // steady state allocates nothing.
  struct ArrivalPool {
    sim::Simulator* sim = nullptr;
    Switch* local_switch = nullptr;
    std::vector<Packet> slots;
    std::vector<std::uint32_t> free_slots;

    void land(sim::Time arrival, const Packet& packet);
    void fire(std::uint32_t slot);
  };

  // One direction of the cut: shard s -> shard d. The ring is the fast
  // path; overflow is producer-owned until the barrier hands it over.
  //
  // Thread-safety analysis (DESIGN.md §12): no lock, so no AEQ_GUARDED_BY —
  // `overflow`, `pushed`, and `overflowed` are owned by the producing shard
  // thread inside a window and by the coordinator at the barrier, with the
  // ShardedSimulator pool mutex (already annotated) ordering the handover.
  // The role discipline is enforced by the executive's epoch protocol and
  // checked under TSan in CI.
  struct Mailbox {
    util::SpscChannel<StampedPacket> ring{kMailboxCapacity};
    std::vector<StampedPacket> overflow;
    std::uint64_t pushed = 0;      // written by the producer shard only
    std::uint64_t overflowed = 0;  // ditto
    std::uint64_t depth_hwm = 0;   // ditto (peak ring + overflow depth)
  };

  // Shard-s side of the cut; one instance per shard, shared by all of the
  // shard's NICs (packets only need the destination host to route).
  class ShardLink final : public LinkReceiver {
   public:
    ShardLink(ShardFabric* fabric, std::uint32_t shard)
        : fabric_(fabric), shard_(shard) {}
    void on_tx_complete(const Packet& packet, sim::Time arrival) override;

   private:
    ShardFabric* fabric_;
    std::uint32_t shard_;
  };

  // Shard src's K-1 outgoing mailboxes are contiguous, skipping src->src.
  Mailbox& mailbox(std::size_t src, std::size_t dst) {
    AEQ_DCHECK(src != dst);
    return *mailboxes_[src * (num_shards() - 1) + (dst < src ? dst : dst - 1)];
  }

  std::vector<sim::Simulator*> sims_;
  std::vector<std::uint32_t> shard_of_host_;
  std::vector<ArrivalPool> arrivals_;
  std::vector<ShardLink> links_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // K * (K - 1), see mailbox()
};

}  // namespace aeq::net
