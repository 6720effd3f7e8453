// The pieces both event queues share, and the queue contract they obey.
//
// Two queues implement the contract: the O(1)-amortized CalendarQueue
// (Brown 1988), which is the executive's scheduler (Simulator holds one by
// value), and the binary-heap EventQueue, which runs no simulation and is
// kept as the reference oracle that the differential tests compare the
// calendar against. Both pop events in strictly increasing (time, tie-rank,
// insertion-sequence) order and expose the same method names, so a test
// can drive them through one template:
//
//   EventId schedule(Time t, Handler handler, uint16_t rank = kTieRankDefault)
//       Schedules `handler` at absolute time `t`, which must not precede the
//       last popped event. `rank` breaks equal-timestamp ties before
//       insertion order does (see below).
//   bool cancel(EventId id)
//       Cancels a pending event; false if it already ran, was already
//       cancelled, or the id is invalid.
//   void reserve_events(size_t n)
//       Pre-sizes storage for `n` concurrent pending events, so a run whose
//       live-event count stays below `n` performs no steady-state
//       allocations. A hint: the structure still grows past it on demand.
//   Popped pop()
//       Pops the earliest live event. Precondition: !empty().
//   bool pop_if_at_most(Time t_limit, Popped& out)
//       Pops the earliest live event into `out` if its time is <= t_limit;
//       returns false (structure untouched) when the queue is empty or the
//       earliest event is later. The dispatch loop uses this instead of
//       next_time()+pop(): one head scan per event instead of two.
//   bool empty() const / size_t size() const
//       Whether any / how many live (non-cancelled) events remain.
//   Time next_time()
//       Time of the earliest live event; non-const because the calendar
//       compacts tombstones while scanning. Precondition: !empty().
//
// The tie rank exists for the sharded (PDES) executive. Equal-timestamp
// events are common (zero-delay chains, phase-locked ack-clocking), and
// breaking those ties purely by insertion order would tie the schedule to
// *when* each event was inserted — and a star's NIC arrival is inserted at
// tx-end when its switch shares the sender's shard but at a lookahead
// barrier when it does not, so the insertion point depends on the shard
// count. Those arrivals therefore carry an explicit rank derived from
// simulation identity (the packet's source host; see net::ShardFabric),
// which every shard count computes identically; rank beats insertion
// order, so the dispatch schedule — and every metric — is the same at
// every shard count. Events scheduled without a rank get
// kTieRankDefault (sorts after every ranked event at the same timestamp)
// and keep pure insertion order among themselves.
//
// Cancellation is generation-stamped rather than hash-based: an EventId
// packs a slot index and a generation counter, and a HandleTable validates
// ids in O(1) with no per-event unordered_set traffic. Cancelled events stay
// in the queue's structure as tombstones and are skipped (and their slots
// reclaimed) lazily when drained.
//
// Event storage is allocation-free in steady state: handlers are
// InlineFunctions (fixed inline capture buffer, no heap fallback) living in
// an EventArena whose node indices are the HandleTable's slot indices, so
// the handle free list doubles as the node free list and schedule/pop/cancel
// recycle storage without touching the allocator once the live-event
// high-water mark stops rising.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/assert.h"
#include "sim/units.h"
#include "util/inline_function.h"

namespace aeq::sim {

// Inline capture budget for event callbacks. 48 bytes covers every capture
// in the tree (the largest — trace replay's [stack, record] — is exactly
// 48); oversized captures fail to compile rather than silently allocating.
// Raising this inflates every arena node, so prefer shrinking captures.
inline constexpr std::size_t kHandlerInlineBytes = 48;

using Handler = util::InlineFunction<void(), kHandlerInlineBytes>;

// Tie rank for events scheduled without an explicit one: sorts after every
// ranked event at the same timestamp. Ranked events must use values
// strictly below this.
inline constexpr std::uint16_t kTieRankDefault = 0xffff;

// The (rank, insertion-counter) pair packed into one comparable word: rank
// in the top 16 bits, counter in the low 48 (2^48 schedules before
// wrap — checked). Both queues order entries by (time, this key), so the
// comparator is exactly the old (time, seq) two-word compare.
inline std::uint64_t pack_tie_key(std::uint16_t rank,
                                  std::uint64_t counter) {
  AEQ_DCHECK(counter < (1ull << 48));
  return (static_cast<std::uint64_t>(rank) << 48) | counter;
}

// The rank half of a packed tie key.
inline std::uint16_t tie_rank_of(std::uint64_t tie_key) {
  return static_cast<std::uint16_t>(tie_key >> 48);
}

// Opaque handle to a scheduled event; value 0 means "no event".
struct EventId {
  std::uint64_t value = 0;
  explicit operator bool() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

// Generation-stamped slot table shared by both event queues.
//
// acquire() hands out an id whose high 32 bits are the slot's current
// generation (>= 1, so packed ids are never 0) and whose low 32 bits are the
// slot index. cancel() and live() validate the generation, which makes
// cancel-after-fire and double-cancel reliable no-ops without any hashing:
// release() bumps the generation when the event's node is drained from the
// owning structure, instantly invalidating stale ids even after the slot is
// reused.
class HandleTable {
 public:
  EventId acquire() {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{1, false});
    }
    // Fresh and recycled slots converge here under the same invariants:
    // release() reclaims slots clean (cancelled false, generation bumped but
    // never wrapped to 0), so a handed-out id can never pack to 0.
    const Slot& slot = slots_[index];
    AEQ_DCHECK(slot.generation >= 1);
    AEQ_DCHECK(!slot.cancelled);
    return EventId{pack(index, slot.generation)};
  }

  // Pending -> cancelled. False when the id already fired, was already
  // cancelled, or is invalid.
  bool cancel(EventId id) {
    const std::uint32_t index = index_of(id);
    if (index >= slots_.size()) return false;
    Slot& slot = slots_[index];
    if (slot.generation != generation_of(id) || slot.cancelled) return false;
    slot.cancelled = true;
    return true;
  }

  // True while the event is pending (not fired, not cancelled).
  bool live(EventId id) const {
    const std::uint32_t index = index_of(id);
    return index < slots_.size() &&
           slots_[index].generation == generation_of(id) &&
           !slots_[index].cancelled;
  }

  // Reclaims the slot once the owning structure drains the event's node
  // (fired or tombstone). Must be called exactly once per acquire(): a
  // double or stale release would put the slot on the free list twice and
  // corrupt every id handed out from it afterwards, so validity is checked
  // — fatally in debug builds, and under AEQ_AUDIT in any build type.
  void release(EventId id) {
    const std::uint32_t index = index_of(id);
    AEQ_DCHECK_MSG(index < slots_.size(),
                   "release() of out-of-range event id");
    AEQ_AUDIT_ONLY(AEQ_CHECK_LT_MSG(index, slots_.size(),
                                    "release() of out-of-range event id"));
    Slot& slot = slots_[index];
    AEQ_DCHECK_MSG(slot.generation == generation_of(id),
                   "double release() or release() of a reused slot");
    AEQ_AUDIT_ONLY(
        AEQ_CHECK_EQ_MSG(slot.generation, generation_of(id),
                         "double release() or release() of a reused slot"));
    if (++slot.generation == 0) slot.generation = 1;  // keep ids nonzero
    slot.cancelled = false;  // reclaimed slots are handed out clean
    free_.push_back(index);
  }

  // Slot index packed into an id — also the event's EventArena node index.
  static std::uint32_t slot_index(EventId id) { return index_of(id); }

  // Pre-sizes the slot and free-list vectors for `n` concurrent events so
  // later acquire/release traffic below that mark never grows them.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

 private:
  struct Slot {
    std::uint32_t generation;
    bool cancelled;
  };

  static std::uint64_t pack(std::uint32_t index, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) | index;
  }
  static std::uint32_t index_of(EventId id) {
    return static_cast<std::uint32_t>(id.value);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id.value >> 32);
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

// Chunked, index-stable event-node storage shared by both event queues. A
// node's index IS its HandleTable slot index, so the handle table's free
// list doubles as the node free list: once the table reaches its
// high-water mark, schedule/pop/cancel recycle nodes with zero allocator
// traffic. Chunks are never freed or moved, so Node references
// stay valid across growth and the calendar's intrusive `next` links can
// be plain indices.
class EventArena {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    Time t = 0.0;
    std::uint64_t seq = 0;
    EventId id{};
    std::uint32_t next = kNil;  // intrusive chain link (calendar buckets)
    Handler handler;
  };

  Node& at(std::uint32_t index) {
    AEQ_DCHECK((index >> kChunkShift) < chunks_.size());
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }
  const Node& at(std::uint32_t index) const {
    AEQ_DCHECK((index >> kChunkShift) < chunks_.size());
    return chunks_[index >> kChunkShift][index & kChunkMask];
  }

  // Grows (by whole chunks) until `index` is addressable. This is the only
  // allocation site — reached only while the live-event high-water mark is
  // still rising, i.e. during warmup.
  void ensure(std::uint32_t index) {
    const std::size_t chunk = index >> kChunkShift;
    while (chunks_.size() <= chunk) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    }
  }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  // 512 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<Node[]>> chunks_;
};

// One popped event, as either queue hands it to its caller.
struct Popped {
  Time time;
  // The event's packed (rank, insertion-seq) ordering key — what broke
  // ties at this timestamp. Consumed by the schedule digest
  // (sim/digest.h); rank lives in the top 16 bits (tie_rank_of).
  std::uint64_t tie_key;
  Handler handler;
};

}  // namespace aeq::sim
