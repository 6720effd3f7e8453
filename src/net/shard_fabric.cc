#include "net/shard_fabric.h"

#include <utility>

#include "sim/assert.h"
#include "sim/scheduler.h"

namespace aeq::net {
namespace {

// Tie-rank for a NIC packet-arrival event (see sim/scheduler.h): the source
// host id, so equal-timestamp arrivals from distinct hosts order by host id
// whether they landed at tx-end or at a barrier, at every shard count. One
// NIC spaces its arrivals a serialization time apart, so two can never
// collide on the same (time, rank). Packets without a source keep
// insertion-order semantics.
std::uint16_t delivery_tie_rank(HostId src) {
  return (src >= 0 && src < static_cast<HostId>(sim::kTieRankDefault))
             ? static_cast<std::uint16_t>(src)
             : sim::kTieRankDefault;
}

}  // namespace

ShardFabric::ShardFabric(std::vector<sim::Simulator*> sims,
                         std::vector<std::uint32_t> shard_of_host)
    : sims_(std::move(sims)), shard_of_host_(std::move(shard_of_host)) {
  const std::size_t shards = sims_.size();
  AEQ_CHECK_GE(shards, 1u);
  for (const std::uint32_t shard : shard_of_host_) {
    AEQ_CHECK_LT(shard, shards);
  }
  arrivals_.resize(shards);
  links_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    arrivals_[k].sim = sims_[k];
    links_.emplace_back(this, static_cast<std::uint32_t>(k));
  }
  mailboxes_.reserve(shards * (shards - 1));
  for (std::size_t i = 0; i < shards * (shards - 1); ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void ShardFabric::set_local_switch(std::size_t shard, Switch* sw) {
  AEQ_ASSERT(sw != nullptr);
  arrivals_.at(shard).local_switch = sw;
}

LinkReceiver* ShardFabric::nic_link(std::size_t shard) {
  return &links_.at(shard);
}

void ShardFabric::reserve_packets(std::size_t packets) {
  for (ArrivalPool& pool : arrivals_) {
    pool.slots.reserve(packets);
    pool.free_slots.reserve(packets);
  }
}

void ShardFabric::ArrivalPool::land(sim::Time arrival, const Packet& packet) {
  std::uint32_t slot;
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
    slots[slot] = packet;
  } else {
    slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(packet);
  }
  // Ranked by source host (delivery_tie_rank): the rank — not the landing
  // order — decides same-timestamp ties, so landing at tx-end or at a
  // barrier gives one schedule at every shard count. An arrival at the
  // clock keeps insertion order instead: ranked, it would sort ahead of the
  // event running now, out of (time, tie key) order. Only a zero-delay link
  // lands one, and only a one-shard star may have such a link (a cut needs
  // a positive delay, and barrier-time arrivals lie past the horizon).
  const std::uint16_t rank = arrival > sim->now()
                                 ? delivery_tie_rank(packet.src)
                                 : sim::kTieRankDefault;
  sim->schedule_at(arrival, [this, slot] { fire(slot); }, rank);
}

void ShardFabric::ArrivalPool::fire(std::uint32_t slot) {
  // Read in place: the switch copies the packet into an egress queue, and
  // nothing lands in this pool (which could move `slots`) until it returns.
  local_switch->receive(slots[slot]);
  free_slots.push_back(slot);
}

void ShardFabric::ShardLink::on_tx_complete(const Packet& packet,
                                            sim::Time arrival) {
  AEQ_ASSERT_MSG(packet.dst >= 0 && static_cast<std::size_t>(packet.dst) <
                                       fabric_->shard_of_host_.size(),
                 "fabric has no route for destination");
  const std::uint32_t dst_shard =
      fabric_->shard_of_host_[static_cast<std::size_t>(packet.dst)];
  if (dst_shard == shard_) {
    // Same shard (every packet of a one-shard run): land directly, one
    // arrival event.
    fabric_->arrivals_[shard_].land(arrival, packet);
    return;
  }
  Mailbox& box = fabric_->mailbox(shard_, dst_shard);
  ++box.pushed;
  if (!box.ring.try_push({arrival, packet})) {
    // Ring full: spill to the producer-owned overflow. The consumer only
    // touches it at the barrier, and FIFO order is preserved because once
    // the ring is full it stays full until that same barrier.
    box.overflow.push_back({arrival, packet});
    ++box.overflowed;
  }
  // Producer-side depth sample: within a window nothing is consumed, so
  // push time sees the true (monotone within the window) depth.
  const std::uint64_t depth = box.ring.approx_size() + box.overflow.size();
  if (depth > box.depth_hwm) box.depth_hwm = depth;
}

void ShardFabric::drain_all() {
  // Fixed (destination, source, FIFO) order keeps the destination shard's
  // event-insertion order — and therefore same-timestamp tie-breaking —
  // deterministic for a given seed and shard count.
  const std::size_t shards = num_shards();
  for (std::size_t dst = 0; dst < shards; ++dst) {
    ArrivalPool& pool = arrivals_[dst];
    for (std::size_t src = 0; src < shards; ++src) {
      if (src == dst) continue;
      Mailbox& box = mailbox(src, dst);
      StampedPacket msg;
      while (box.ring.try_pop(msg)) pool.land(msg.arrival, msg.packet);
      for (const StampedPacket& spilled : box.overflow) {
        pool.land(spilled.arrival, spilled.packet);
      }
      box.overflow.clear();
    }
  }
}

bool ShardFabric::idle() const {
  for (const auto& box : mailboxes_) {
    if (!box->ring.empty() || !box->overflow.empty()) return false;
  }
  return true;
}

std::uint64_t ShardFabric::cross_shard_packets() const {
  std::uint64_t total = 0;
  for (const auto& box : mailboxes_) total += box->pushed;
  return total;
}

std::uint64_t ShardFabric::mailbox_overflows() const {
  std::uint64_t total = 0;
  for (const auto& box : mailboxes_) total += box->overflowed;
  return total;
}

std::uint64_t ShardFabric::mailbox_depth_hwm() const {
  std::uint64_t hwm = 0;
  for (const auto& box : mailboxes_) {
    if (box->depth_hwm > hwm) hwm = box->depth_hwm;
  }
  return hwm;
}

}  // namespace aeq::net
