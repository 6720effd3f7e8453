// Calendar queue (Brown 1988): the executive's event scheduler, O(1)
// amortized for workloads whose event horizon is short and dense — exactly
// a packet simulator's profile. Simulator holds one by value. The heap
// EventQueue obeys the same contract (sim/scheduler.h) and pops in
// identical (time, sequence) order; tests use it as the oracle.
//
// Buckets cover `bucket_width` of simulated time each and wrap around a
// ring of `num_buckets`; events further than one rotation ahead sit in their
// modulo bucket and are reached via a lazy sparse-jump scan. The structure
// resizes itself (doubling/halving buckets) when occupancy drifts far from
// one event per bucket, and each resize re-estimates the bucket width from
// the gaps between the earliest pending events (Brown's sampling rule) so a
// dense head cluster spreads across many buckets instead of piling into
// one. Cancellation is validated by the generation-stamped HandleTable;
// tombstones are reclaimed when their bucket position is drained, and a
// resize purges them wholesale.
//
// A bucket is just a head index into the shared EventArena; nodes chain
// through their intrusive `next` links in (time, seq) order. Insert, pop,
// and resize relink indices without moving nodes, so the steady-state event
// loop performs no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/assert.h"
#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class CalendarQueue {
 public:
  explicit CalendarQueue(Time initial_bucket_width = 1 * kUsec,
                         std::size_t initial_buckets = 256);

  EventId schedule(Time t, Handler handler,
                   std::uint16_t rank = kTieRankDefault);
  bool cancel(EventId id);
  Popped pop();
  bool pop_if_at_most(Time t_limit, Popped& out);
  void reserve_events(std::size_t n);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  Time next_time();  // not const: may compact tombstones

  std::size_t num_buckets() const { return buckets_.size(); }

 private:
  // Slot index = which `width_`-wide window an event belongs to. Window
  // membership during the cursor scan and bucket placement both derive from
  // this one expression: using separate float arithmetic for the two (as a
  // textbook `current_ + width_` rolling window does) lets truncation in
  // t / width_ land an event one slot below the window that the rolling sum
  // says should contain it, and the scan then skips it as "future rotation"
  // on every pass — it only resurfaces, late and out of order, via the
  // sparse-jump fallback once the calendar drains.
  std::uint64_t slot_of(Time t) const {
    return static_cast<std::uint64_t>(t / width_);
  }
  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(slot_of(t) % buckets_.size());
  }
  // Chains the arena node `index` into its bucket in (t, seq) order.
  void insert(std::uint32_t index);
  // Destroys a cancelled node's callback and reclaims its handle slot.
  void discard_tombstone(std::uint32_t index);
  void maybe_resize();
  void resize(std::size_t new_buckets);
  Time estimate_width(const std::vector<std::uint32_t>& old_heads);
  // Advances cursor_ to the bucket holding the earliest event; returns the
  // node's index (unlinked from its bucket, handle still held) — the core
  // calendar scan.
  std::uint32_t take_earliest();

  std::vector<std::uint32_t> buckets_;  // head node index, kNil when empty
  // Scratch storage reused across resizes (bucket layout swap and the
  // width-estimation sample): capacity persists, so steady-state resizes
  // allocate only when the calendar outgrows every previous record.
  std::vector<std::uint32_t> scratch_buckets_;
  std::vector<Time> scratch_times_;
  EventArena arena_;
  Time width_;
  std::uint64_t slot_ = 0;  // slot index of the cursor bucket's window
  Time floor_time_ = 0.0;   // last popped time: no event may precede it
  std::size_t cursor_ = 0;  // bucket being drained
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  HandleTable handles_;
  // Last popped (time, seq), consulted only by the AEQ_AUDIT build's
  // pop-order check: both queues promise strictly increasing order.
  Time last_popped_t_ = -1.0;
  std::uint64_t last_popped_seq_ = 0;
};

}  // namespace aeq::sim
