#include "sim/calendar_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace aeq::sim {

CalendarQueue::CalendarQueue(Time initial_bucket_width,
                             std::size_t initial_buckets)
    : buckets_(initial_buckets, EventArena::kNil),
      width_(initial_bucket_width) {
  AEQ_ASSERT(initial_bucket_width > 0.0 && initial_buckets >= 2);
}

void CalendarQueue::reserve_events(std::size_t n) {
  if (n == 0) return;
  handles_.reserve(n);
  arena_.ensure(static_cast<std::uint32_t>(n - 1));
  scratch_times_.reserve(n);
  // Bucket counts track the live-event count (maybe_resize keeps them
  // within [live/2, 4*live]), so reserving both layout vectors at the hint
  // makes later resizes allocation-free up to `n` live events.
  std::size_t max_buckets = buckets_.size();
  while (max_buckets < 2 * n && max_buckets < (1u << 20)) max_buckets *= 2;
  buckets_.reserve(max_buckets);
  scratch_buckets_.reserve(max_buckets);
}

EventId CalendarQueue::schedule(Time t, Handler handler,
                                std::uint16_t rank) {
  AEQ_ASSERT(handler != nullptr);
  AEQ_ASSERT_MSG(std::isfinite(t), "event time must be finite");
  AEQ_ASSERT_MSG(t >= floor_time_, "cannot schedule into the past");
  const EventId id = handles_.acquire();
  const std::uint32_t index = HandleTable::slot_index(id);
  arena_.ensure(index);
  EventArena::Node& node = arena_.at(index);
  node.t = t;
  node.seq = pack_tie_key(rank, next_seq_++);
  node.id = id;
  node.handler = std::move(handler);
  insert(index);
  ++live_;
  maybe_resize();
  return id;
}

void CalendarQueue::insert(std::uint32_t index) {
  EventArena::Node& node = arena_.at(index);
  // Keep chains sorted by (t, seq): they are short by design, so the linear
  // scan stays cheap and take_earliest can inspect heads only.
  std::uint32_t* link = &buckets_[bucket_of(node.t)];
  while (*link != EventArena::kNil) {
    const EventArena::Node& cur = arena_.at(*link);
    if (cur.t > node.t || (cur.t == node.t && cur.seq > node.seq)) break;
    link = &arena_.at(*link).next;
  }
  node.next = *link;
  *link = index;
}

bool CalendarQueue::cancel(EventId id) {
  // Lazy: the node stays in its bucket as a tombstone and is reclaimed when
  // drained. Generation validation makes cancel of a fired or already
  // cancelled id a reliable no-op.
  if (!handles_.cancel(id)) return false;
  AEQ_ASSERT(live_ > 0);
  --live_;
  return true;
}

void CalendarQueue::discard_tombstone(std::uint32_t index) {
  EventArena::Node& node = arena_.at(index);
  // Destroy the callback (it may own resources) before the slot — and with
  // it the arena node — goes back on the free list.
  node.handler = nullptr;
  node.next = EventArena::kNil;
  handles_.release(node.id);
}

std::uint32_t CalendarQueue::take_earliest() {
  // Scan buckets from the cursor; an event belongs to the current rotation
  // when its slot index (the same computation that placed it in its bucket,
  // see slot_of) has been reached by the cursor's slot.
  for (std::size_t scanned = 0; scanned <= buckets_.size(); ++scanned) {
    std::uint32_t* head = &buckets_[cursor_];
    while (*head != EventArena::kNil) {
      const std::uint32_t index = *head;
      EventArena::Node& node = arena_.at(index);
      if (slot_of(node.t) > slot_) break;  // future rotation
      *head = node.next;  // unlink the chain head
      node.next = EventArena::kNil;
      if (!handles_.live(node.id)) {  // tombstone: reclaim and skip
        discard_tombstone(index);
        continue;
      }
      // Re-anchor at the popped event so the cursor never runs ahead of
      // simulated time (resizes can leave it misaligned).
      slot_ = slot_of(node.t);
      cursor_ = bucket_of(node.t);
      return index;
    }
    cursor_ = (cursor_ + 1) % buckets_.size();
    ++slot_;
  }
  // A full rotation found nothing in-window: events are sparse. Jump the
  // calendar to the earliest event anywhere (direct search).
  Time best = std::numeric_limits<Time>::infinity();
  for (std::uint32_t& head : buckets_) {
    // Drop tombstoned heads so the scan sees live minima.
    while (head != EventArena::kNil && !handles_.live(arena_.at(head).id)) {
      const std::uint32_t dead = head;
      head = arena_.at(dead).next;
      discard_tombstone(dead);
    }
    if (head != EventArena::kNil) best = std::min(best, arena_.at(head).t);
  }
  AEQ_ASSERT_MSG(best < std::numeric_limits<Time>::infinity(),
                 "take_earliest on empty calendar");
  slot_ = slot_of(best);
  cursor_ = bucket_of(best);
  return take_earliest();
}

bool CalendarQueue::pop_if_at_most(Time t_limit, Popped& out) {
  if (live_ == 0) return false;
  // Save the scan anchor: when the earliest event is past the limit it goes
  // back in, and the cursor must not have committed the epoch advance (see
  // next_time()).
  const std::uint64_t saved_slot = slot_;
  const std::size_t saved_cursor = cursor_;
  const std::uint32_t index = take_earliest();
  EventArena::Node& node = arena_.at(index);
  const Time t = node.t;
  if (t > t_limit) {
    insert(index);  // put it back; its handle stays live
    slot_ = saved_slot;
    cursor_ = saved_cursor;
    return false;
  }
  const std::uint64_t seq = node.seq;
  out.time = t;
  out.tie_key = seq;
  out.handler = std::move(node.handler);
  handles_.release(node.id);
  --live_;
  floor_time_ = t;
  maybe_resize();
  // Scheduler contract shared with EventQueue: pops leave in strictly
  // increasing (time, insertion-sequence) order, the property the
  // heap-oracle differential tests rest on.
  AEQ_AUDIT_ONLY({
    AEQ_CHECK_GE_MSG(t, last_popped_t_, "event popped out of time order");
    if (t == last_popped_t_) {
      AEQ_CHECK_GT_MSG(seq, last_popped_seq_,
                       "tied events popped out of insertion order");
    }
    last_popped_t_ = t;
    last_popped_seq_ = seq;
  });
  return true;
}

Popped CalendarQueue::pop() {
  Popped out;
  const bool popped =
      pop_if_at_most(std::numeric_limits<Time>::infinity(), out);
  AEQ_ASSERT_MSG(popped, "pop() on empty calendar queue");
  return out;
}

Time CalendarQueue::next_time() {
  AEQ_ASSERT(live_ > 0);
  // Peek without committing the epoch advance: take_earliest re-anchors
  // the cursor at the earliest event, which may lie arbitrarily far in the
  // future — a later schedule() between this peek and the next pop() must
  // still be allowed at any t >= the last *popped* time.
  const std::uint64_t saved_slot = slot_;
  const std::size_t saved_cursor = cursor_;
  const std::uint32_t index = take_earliest();
  const Time t = arena_.at(index).t;
  insert(index);  // put it back; its handle stays live
  slot_ = saved_slot;
  cursor_ = saved_cursor;
  return t;
}

void CalendarQueue::maybe_resize() {
  const std::size_t n = buckets_.size();
  if (live_ > 2 * n && n < (1u << 20)) {
    resize(n * 2);
  } else if (live_ < n / 4 && n > 256) {
    resize(n / 2);
  }
}

// Brown's width rule: sample the earliest pending events and size a bucket
// at a few average inter-event gaps, so the cluster the cursor is about to
// drain spreads across many buckets (short sorted-insert scans) instead of
// piling into one. Falls back to the current width when the sample is too
// small or degenerate (e.g. all events at the same instant).
Time CalendarQueue::estimate_width(
    const std::vector<std::uint32_t>& old_heads) {
  std::vector<Time>& times = scratch_times_;
  times.clear();
  times.reserve(live_);
  for (std::uint32_t head : old_heads) {
    for (std::uint32_t i = head; i != EventArena::kNil;
         i = arena_.at(i).next) {
      const EventArena::Node& node = arena_.at(i);
      if (handles_.live(node.id)) times.push_back(node.t);
    }
  }
  const std::size_t k = std::min<std::size_t>(times.size(), 64);
  if (k < 8) return width_;
  std::nth_element(times.begin(), times.begin() + (k - 1), times.end());
  std::sort(times.begin(), times.begin() + k);
  const Time span = times[k - 1] - times[0];
  if (span <= 0.0) return width_;
  return std::max(3.0 * span / static_cast<Time>(k - 1), 1e-12);
}

void CalendarQueue::resize(std::size_t new_buckets) {
  // Estimate against the intact old layout, then swap it into the scratch
  // vector: both directions reuse the scratch's capacity, so recurring
  // grow/shrink cycles cost no allocator traffic.
  width_ = estimate_width(buckets_);
  scratch_buckets_.assign(new_buckets, EventArena::kNil);
  buckets_.swap(scratch_buckets_);
  const std::vector<std::uint32_t>& old = scratch_buckets_;
  // Re-anchor at the last popped time: every live event is at or after it,
  // so its slot (under the new width) is a valid scan start.
  slot_ = slot_of(floor_time_);
  cursor_ = static_cast<std::size_t>(slot_ % new_buckets);
  for (std::uint32_t head : old) {
    std::uint32_t i = head;
    while (i != EventArena::kNil) {
      const std::uint32_t next = arena_.at(i).next;
      arena_.at(i).next = EventArena::kNil;
      if (!handles_.live(arena_.at(i).id)) {  // purge tombstones wholesale
        discard_tombstone(i);
      } else {
        insert(i);
      }
      i = next;
    }
  }
}

}  // namespace aeq::sim
