#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace aeq::sim {

void EventQueue::sift_up(std::size_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void EventQueue::reserve_events(std::size_t n) {
  if (n == 0) return;
  heap_.reserve(n);
  handles_.reserve(n);
  arena_.ensure(static_cast<std::uint32_t>(n - 1));
}

EventId EventQueue::schedule(Time t, Handler handler, std::uint16_t rank) {
  AEQ_ASSERT(handler != nullptr);
  const EventId id = handles_.acquire();
  const std::uint32_t index = HandleTable::slot_index(id);
  arena_.ensure(index);
  EventArena::Node& node = arena_.at(index);
  node.t = t;
  node.seq = pack_tie_key(rank, next_seq_++);
  node.id = id;
  node.handler = std::move(handler);
  heap_.push_back(Entry{node.t, node.seq, id});
  sift_up(heap_.size() - 1);
  ++live_;
  // A raw queue (unlike Simulator::schedule_at) permits scheduling below the
  // last popped time; the pop-order floor must follow the new minimum.
  AEQ_AUDIT_ONLY({
    if (t < last_popped_t_) last_popped_t_ = t;
  });
  return id;
}

bool EventQueue::cancel(EventId id) {
  // Only genuinely pending events can be cancelled; a fired or already
  // cancelled id fails generation validation and is a no-op. The heap entry
  // stays behind as a tombstone skipped lazily by pop().
  if (!handles_.cancel(id)) return false;
  AEQ_ASSERT(live_ > 0);
  --live_;
  return true;
}

EventQueue::Entry EventQueue::take_head() {
  const Entry entry = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return entry;
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && !handles_.live(heap_.front().id)) {
    const Entry entry = take_head();
    // Destroy the tombstone's callback (it may own resources) before the
    // slot — and with it the arena node — goes back on the free list.
    arena_.at(HandleTable::slot_index(entry.id)).handler = nullptr;
    handles_.release(entry.id);
  }
}

bool EventQueue::pop_if_at_most(Time t_limit, Popped& out) {
  drop_cancelled_head();
  if (heap_.empty() || heap_.front().t > t_limit) return false;
  const Entry entry = take_head();
  EventArena::Node& node = arena_.at(HandleTable::slot_index(entry.id));
  out.time = entry.t;
  out.tie_key = entry.seq;
  out.handler = std::move(node.handler);
  handles_.release(entry.id);
  --live_;
  // Scheduler contract shared with CalendarQueue: pops leave in strictly
  // increasing (time, insertion-sequence) order, the property the
  // heap-oracle differential tests rest on.
  AEQ_AUDIT_ONLY({
    AEQ_CHECK_GE_MSG(entry.t, last_popped_t_,
                     "event popped out of time order");
    if (entry.t == last_popped_t_) {
      AEQ_CHECK_GT_MSG(entry.seq, last_popped_seq_,
                       "tied events popped out of insertion order");
    }
    last_popped_t_ = entry.t;
    last_popped_seq_ = entry.seq;
  });
  return true;
}

Popped EventQueue::pop() {
  Popped out;
  const bool popped =
      pop_if_at_most(std::numeric_limits<Time>::infinity(), out);
  AEQ_ASSERT_MSG(popped, "pop() on empty event queue");
  return out;
}

Time EventQueue::next_time() {
  drop_cancelled_head();
  AEQ_ASSERT_MSG(!heap_.empty(), "next_time() on empty event queue");
  return heap_.front().t;
}

}  // namespace aeq::sim
