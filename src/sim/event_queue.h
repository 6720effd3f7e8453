// Heap event queue: the reference oracle for CalendarQueue.
//
// No simulation runs on it — Simulator holds a CalendarQueue — but it obeys
// the same queue contract (sim/scheduler.h) with a structure simple enough
// to trust, so the differential tests replay identical operation streams
// through both queues and require identical pops.
//
// Events are arbitrary callables scheduled at an absolute simulated time.
// Ties are broken by insertion order (a monotonically increasing sequence
// number), which makes every run deterministic for a fixed seed.
// Cancellation is lazy: cancelled events stay in the heap as tombstones and
// are skipped when popped, which keeps schedule/cancel O(log n)/O(1).
//
// The heap is a hand-rolled 4-ary implicit heap over 24-byte
// (time, seq, id) entries: a quarter of the depth of a binary heap, with
// each node's children adjacent in memory, which roughly halves the
// pop-path cache misses that dominate the event loop. Handlers stay put in
// the shared EventArena, addressed by the id's slot index, so sift
// operations move three words instead of a whole callback and steady-state
// scheduling never touches the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/assert.h"
#include "sim/scheduler.h"
#include "sim/units.h"

namespace aeq::sim {

class EventQueue {
 public:
  EventId schedule(Time t, Handler handler,
                   std::uint16_t rank = kTieRankDefault);
  bool cancel(EventId id);
  Popped pop();
  bool pop_if_at_most(Time t_limit, Popped& out);
  void reserve_events(std::size_t n);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  Time next_time();

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    EventId id;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  // Drains tombstones off the heap top so the head is a live event.
  void drop_cancelled_head();
  // Removes and returns the head entry; the caller settles its arena node
  // and handle slot.
  Entry take_head();

  std::vector<Entry> heap_;
  EventArena arena_;
  HandleTable handles_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  // Last popped (time, seq), consulted only by the AEQ_AUDIT build's
  // pop-order check: both queues promise strictly increasing order.
  Time last_popped_t_ = -1.0;
  std::uint64_t last_popped_seq_ = 0;
};

}  // namespace aeq::sim
