// An egress port: a queue discipline drained onto a link.
//
// The port serializes one packet at a time at the link rate and delivers it
// to the connected peer after the propagation delay. It is the only
// component that consumes simulated link time, so per-port busy time gives
// exact utilization.
#pragma once

#include <memory>
#include <utility>

#include "net/packet.h"
#include "net/queue.h"
#include "obs/recorder.h"
#include "util/ring_buffer.h"
#include "sim/simulator.h"

namespace aeq::net {

// Alternative receiving end of a link whose far side may live on another
// event scheduler (the star's NIC uplinks into net::ShardFabric, at every
// shard count): instead of the port scheduling the delivery event itself,
// it hands the packet over at serialization end together with the arrival
// timestamp (tx-complete + propagation), and the receiver is responsible
// for landing it at that time. Keeping the propagation leg on the
// receiver's side is what gives the sharded executive its lookahead window.
class LinkReceiver {
 public:
  virtual ~LinkReceiver() = default;
  virtual void on_tx_complete(const Packet& packet, sim::Time arrival) = 0;
};

class Port {
 public:
  Port(sim::Simulator& simulator, sim::Rate rate_bytes_per_sec,
       sim::Time propagation_delay, std::unique_ptr<QueueDiscipline> queue);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Sets the receiving end of the link. Must be called before send().
  void connect(PacketSink* peer) { peer_ = peer; }

  // Link-handoff mode: at serialization end the packet goes to `link`
  // (stamped with its arrival time) instead of this port scheduling the
  // delivery event. Exactly one of connect(PacketSink*) / connect(
  // LinkReceiver*) may be used per port. Timing is identical to the sink
  // mode as long as the receiver lands the packet at the given arrival
  // time; the conservation counters treat the handoff as delivery.
  void connect(LinkReceiver* link) { link_ = link; }

  // Attaches the telemetry recorder; `port_id` is the id this port was
  // registered under (obs::Recorder::register_port). Null detaches — the
  // packet-event emission then costs a single predictable branch.
  void set_observer(obs::Recorder* recorder, std::uint32_t port_id) {
    obs_ = recorder;
    obs_port_id_ = port_id;
  }

  // Enqueues a packet and starts transmitting if the link is idle.
  void send(const Packet& packet);

  // Pre-sizes the in-flight ring (and forwards the hint to the queue
  // discipline) so steady-state transmission never grows storage.
  void reserve_packets(std::size_t packets) {
    in_flight_.reserve(packets);
    queue_->reserve_packets(packets);
  }

  QueueDiscipline& queue() { return *queue_; }
  const QueueDiscipline& queue() const { return *queue_; }

  sim::Rate rate() const { return rate_; }
  sim::Time propagation_delay() const { return propagation_; }

  // Cumulative time spent serializing packets, up to the current simulated
  // time. Completed transmissions are accounted in full; an in-progress one
  // contributes only its elapsed part, so mid-packet samples never count
  // serialization time that has not happened yet.
  sim::Time busy_time() const {
    return busy_time_ + (busy_ ? sim_.now() - tx_start_ : 0.0);
  }

  // Fraction of [0, now] the link spent transmitting.
  double utilization(sim::Time now) const {
    return now > 0 ? busy_time() / now : 0.0;
  }

  // Link-level conservation counters for the audit layer: every packet the
  // discipline hands to the link is either still propagating (in_flight) or
  // has been delivered to the peer — dequeued == delivered + in_flight.
  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t in_flight_packets() const { return in_flight_.size(); }

 private:
  void try_transmit();
  void deliver_head();
  void emit_packet_event(obs::PacketEventKind kind, const Packet& packet);

  sim::Simulator& sim_;
  sim::Rate rate_;
  sim::Time propagation_;
  std::unique_ptr<QueueDiscipline> queue_;
  PacketSink* peer_ = nullptr;
  LinkReceiver* link_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  std::uint32_t obs_port_id_ = 0;
  bool busy_ = false;
  sim::Time busy_time_ = 0.0;  // completed transmissions only
  sim::Time tx_start_ = 0.0;   // start of the in-progress transmission
  std::uint64_t delivered_packets_ = 0;
  // Packets serialized but not yet delivered (propagation in progress).
  // Delivery events are scheduled in FIFO order with a constant propagation
  // delay, so the head is always the next to arrive; keeping the packets
  // here lets the hot-path events capture only `this` (no allocation).
  util::RingBuffer<Packet> in_flight_;
};

}  // namespace aeq::net
