// Event-queue tests: the heap-oracle equivalence property (the same
// operation stream through the CalendarQueue that Simulator runs on and the
// heap EventQueue must yield identical pops), the generation-stamped
// cancellation contract, and CalendarQueue edge cases (overflow
// cancellation, resize in both directions, tie-breaking, next_time()
// purity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace aeq {
namespace {

// One input to the equivalence property: how event times are drawn and
// which parts of the queue contract the operation stream exercises.
struct OpMix {
  const char* name;
  // Times snap to this grid (0 = continuous). A coarse grid makes exact
  // timestamp ties the common case rather than a measure-zero accident.
  double grid = 0.0;
  bool ranked = false;       // pass explicit tie ranks on half the schedules
  bool limited_pops = false;  // pop via pop_if_at_most with finite limits
  bool peeks = false;        // interleave next_time() peeks
  std::size_t reserve = 0;   // reserve_events() up front (and mid-run)
};

// Everything observable about a replay: the differential test requires
// both queues to produce the same record.
struct Replay {
  std::vector<int> fired;
  std::vector<double> popped_times;
  std::vector<std::uint64_t> popped_keys;
  std::vector<char> verdicts;  // cancel() and pop_if_at_most() results
  std::vector<double> peeks;
  std::vector<std::size_t> sizes;
};

// Applies the seeded random operation stream `mix` to `queue`. The stream
// depends only on the seed and on the queue's observable answers, so two
// queues that agree on every answer see the identical stream.
template <typename Queue>
Replay replay(const OpMix& mix, std::uint64_t seed) {
  Queue queue;
  Replay out;
  if (mix.reserve > 0) queue.reserve_events(mix.reserve);
  sim::Rng rng(seed);
  std::vector<sim::EventId> ids;
  double now = 0.0;
  int next_label = 0;
  auto draw_time = [&](bool ranked) {
    // Mixed horizons: dense near-term, sparse far-future (overflow).
    double dt = rng.bernoulli(0.9) ? rng.exponential(2e-6)
                                   : rng.uniform(1e-3, 5e-3);
    if (mix.grid > 0.0) dt = mix.grid * static_cast<double>(
                                 static_cast<std::uint64_t>(dt / mix.grid));
    // A ranked event sorts ahead of a default-rank one at the same time, so
    // one scheduled at the clock would pop behind a tie that already left —
    // out of (time, tie key) order, which the audited queues reject. Keep
    // ranked events strictly in the future, as net::ShardFabric does (it
    // ranks only arrivals a propagation delay ahead); exact ties then form
    // among pending events.
    if (ranked && dt == 0.0) dt = mix.grid;
    return now + dt;
  };
  auto record = [&](sim::Popped& event) {
    out.popped_times.push_back(event.time);
    out.popped_keys.push_back(event.tie_key);
    now = event.time;
    event.handler();
  };
  for (int round = 0; round < 30000; ++round) {
    const double action = rng.uniform();
    if (action < 0.5 || queue.empty()) {
      const bool ranked = mix.ranked && rng.bernoulli(0.5);
      const double t = draw_time(ranked);
      const int label = next_label++;
      const std::uint16_t rank = ranked
                                     ? static_cast<std::uint16_t>(rng.index(4))
                                     : sim::kTieRankDefault;
      ids.push_back(queue.schedule(
          t, [&fired = out.fired, label] { fired.push_back(label); }, rank));
    } else if (action < 0.65 && !ids.empty()) {
      // Cancel a random known id (may have fired or been cancelled
      // already); both queues must agree on the verdict.
      out.verdicts.push_back(queue.cancel(ids[rng.index(ids.size())]) ? 1
                                                                      : 0);
    } else if (mix.reserve > 0 && action >= 0.9995) {
      queue.reserve_events(2 * queue.size() + mix.reserve);
    } else if (mix.peeks && action < 0.72) {
      out.peeks.push_back(queue.next_time());
    } else if (mix.limited_pops) {
      // A limit at the clock or a random draw past it: events exactly at
      // the limit must pop, later ones must stay queued untouched.
      const double limit = rng.bernoulli(0.3) ? now : draw_time(false);
      sim::Popped event;
      const bool popped = queue.pop_if_at_most(limit, event);
      out.verdicts.push_back(popped ? 1 : 0);
      if (popped) record(event);
    } else {
      sim::Popped event = queue.pop();
      record(event);
    }
    out.sizes.push_back(queue.size());
  }
  sim::Popped event;
  while (queue.pop_if_at_most(std::numeric_limits<double>::infinity(),
                              event)) {
    record(event);
  }
  EXPECT_TRUE(queue.empty());
  return out;
}

// The heap EventQueue is the oracle: the same operation stream through the
// calendar must fire the same handlers at the same (time, tie key) and give
// the same cancel/pop verdicts, peeks and sizes — for every input below.
TEST(SchedulerEquivalenceTest, IdenticalEventOrderUnderRandomOps) {
  const OpMix mixes[] = {
      {"continuous"},
      {"ranked-ties", 1e-6, true},
      {"limited-pops-and-peeks", 0.0, false, true, true},
      {"everything", 5e-7, true, true, true, 4096},
  };
  for (const OpMix& mix : mixes) {
    SCOPED_TRACE(mix.name);
    const Replay heap = replay<sim::EventQueue>(mix, 2024);
    const Replay calendar = replay<sim::CalendarQueue>(mix, 2024);
    ASSERT_EQ(heap.fired.size(), calendar.fired.size());
    EXPECT_EQ(heap.fired, calendar.fired);
    EXPECT_EQ(heap.popped_times, calendar.popped_times);
    EXPECT_EQ(heap.popped_keys, calendar.popped_keys);
    EXPECT_EQ(heap.verdicts, calendar.verdicts);
    EXPECT_EQ(heap.peeks, calendar.peeks);
    EXPECT_EQ(heap.sizes, calendar.sizes);
  }
}

// --- generation-stamped cancellation contract -----------------------------

TEST(HandleTableTest, StaleIdAfterSlotReuseIsRejected) {
  sim::HandleTable table;
  const sim::EventId first = table.acquire();
  table.release(first);                     // fired: slot goes back
  const sim::EventId reused = table.acquire();  // same slot, new generation
  EXPECT_NE(first.value, reused.value);
  EXPECT_FALSE(table.cancel(first));  // stale generation: reliable no-op
  EXPECT_TRUE(table.live(reused));
  EXPECT_TRUE(table.cancel(reused));
  EXPECT_FALSE(table.cancel(reused));  // double cancel
}

// release() must be called exactly once per acquire(): a double or stale
// release would push the slot onto the free list twice and corrupt every id
// handed out from it afterwards. The validation is AEQ_DCHECK (debug) plus
// AEQ_CHECK under AEQ_AUDIT, so it compiles out of plain release builds.
#if !defined(NDEBUG) || AEQ_AUDIT_ENABLED
TEST(HandleTableDeathTest, DoubleReleaseIsFatal) {
  sim::HandleTable table;
  const sim::EventId id = table.acquire();
  table.release(id);
  EXPECT_DEATH(table.release(id),
               "double release\\(\\) or release\\(\\) of a reused slot");
}

TEST(HandleTableDeathTest, ReleaseAfterSlotReuseIsFatal) {
  sim::HandleTable table;
  const sim::EventId stale = table.acquire();
  table.release(stale);
  const sim::EventId reused = table.acquire();  // same slot, new generation
  ASSERT_TRUE(table.live(reused));
  // Releasing the stale id would invalidate `reused` out from under its
  // owner and double-free the slot.
  EXPECT_DEATH(table.release(stale),
               "double release\\(\\) or release\\(\\) of a reused slot");
}

TEST(HandleTableDeathTest, ReleaseOfOutOfRangeIdIsFatal) {
  sim::HandleTable table;
  (void)table.acquire();
  const sim::EventId bogus{(std::uint64_t{1} << 32) | 0x00ffffffu};
  EXPECT_DEATH(table.release(bogus), "out-of-range event id");
}
#endif  // !defined(NDEBUG) || AEQ_AUDIT_ENABLED

TEST(EventQueueTest, StaleCancelAfterSlotReuseLeavesNewEventLive) {
  sim::EventQueue q;
  const sim::EventId old_id = q.schedule(1.0, [] {});
  q.pop();  // fires the event, freeing its slot for reuse
  bool ran = false;
  q.schedule(2.0, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(q.cancel(old_id));        // stale id must not kill the reuser
  EXPECT_EQ(q.size(), 1u);
  q.pop().handler();
  EXPECT_TRUE(ran);
}

TEST(CalendarQueueTest, CancelAfterFireIsHarmlessNoOp) {
  sim::CalendarQueue q;
  const sim::EventId fired = q.schedule(1e-6, [] {});
  q.schedule(2e-6, [] {});
  q.pop().handler();
  // With hash-set bookkeeping this used to corrupt the live count; the
  // generation stamp makes it a reliable no-op.
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_EQ(q.size(), 1u);
  q.pop().handler();
  EXPECT_TRUE(q.empty());
}

// --- CalendarQueue edge cases ---------------------------------------------

TEST(CalendarQueueTest, CancelOfOverflowEventIsSkipped) {
  // 8 buckets x 1us: one rotation covers 8us; 1s is far in the overflow
  // region reached only via the sparse-jump scan.
  sim::CalendarQueue q(1e-6, 8);
  std::vector<int> order;
  const sim::EventId far = q.schedule(1.0, [&] { order.push_back(99); });
  q.schedule(1e-6, [&] { order.push_back(1); });
  q.schedule(3e-6, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(far));
  EXPECT_FALSE(q.cancel(far));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().handler();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(CalendarQueueTest, OverflowEventStillFiresAfterNearTermDrain) {
  sim::CalendarQueue q(1e-6, 8);
  std::vector<double> popped;
  q.schedule(0.5, [] {});     // beyond many rotations
  q.schedule(2.0, [] {});     // even further
  q.schedule(2e-6, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{2e-6, 0.5, 2.0}));
}

TEST(CalendarQueueTest, SlotBoundaryTruncatedEventIsNotStranded) {
  // Regression: t = 0.0018 with the default 1us width truncates to slot 1799
  // in bucket placement (0.0018 / 1e-6 computes just under 1800), while a
  // float rolling-window scan put it in slot 1800's window. The scan then
  // skipped it as "future rotation" forever and it surfaced late — and out
  // of order — via the sparse-jump fallback, silently regressing simulated
  // time. Placement and window membership must share one slot computation.
  sim::CalendarQueue q;  // 1us buckets, 256 of them
  std::vector<double> expected;
  q.schedule(0.0018, [] {});
  expected.push_back(0.0018);
  for (int k = 1; k <= 300; ++k) {
    const double t = 0.0018 + k * 0.7e-6;  // mid-slot, spans > one rotation
    q.schedule(t, [] {});
    expected.push_back(t);
  }
  std::vector<double> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, expected);  // already sorted: strictly increasing input
}

TEST(CalendarQueueTest, ResizeBothDirectionsPreservesOrderAndNextTime) {
  sim::CalendarQueue q;  // 256 buckets initially
  sim::Rng rng(31);
  const std::size_t initial_buckets = q.num_buckets();
  for (int i = 0; i < 3000; ++i) q.schedule(rng.uniform(0.0, 1e-3), [] {});
  const std::size_t grown = q.num_buckets();
  EXPECT_GT(grown, initial_buckets);  // doubling triggered
  std::size_t smallest = grown;
  double last = -1.0;
  while (!q.empty()) {
    // next_time() must agree with the following pop and be monotone.
    const double peek = q.next_time();
    const double t = q.pop().time;
    EXPECT_DOUBLE_EQ(peek, t);
    EXPECT_GE(t, last);
    last = t;
    smallest = std::min(smallest, q.num_buckets());
  }
  EXPECT_LT(smallest, grown);  // halving triggered on the way down
}

TEST(CalendarQueueTest, TieBreakBySequenceMatchesEventQueue) {
  sim::CalendarQueue calendar(1e-6, 4);
  sim::EventQueue heap;
  std::vector<std::string> calendar_order, heap_order;
  std::vector<sim::EventId> calendar_ids, heap_ids;
  // Three batches at the same instant, interleaved with batches at another
  // instant, plus cancellation of every third event.
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 5; ++i) {
      const double t = (batch % 2 == 0) ? 5e-6 : 2e-6;
      const std::string label =
          std::to_string(batch) + ":" + std::to_string(i);
      calendar_ids.push_back(calendar.schedule(
          t, [&calendar_order, label] { calendar_order.push_back(label); }));
      heap_ids.push_back(heap.schedule(
          t, [&heap_order, label] { heap_order.push_back(label); }));
    }
  }
  for (std::size_t k = 0; k < calendar_ids.size(); k += 3) {
    EXPECT_EQ(calendar.cancel(calendar_ids[k]), heap.cancel(heap_ids[k]));
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    auto ch = calendar.pop();
    auto hh = heap.pop();
    ASSERT_DOUBLE_EQ(ch.time, hh.time);
    ch.handler();
    hh.handler();
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar_order, heap_order);
}

// Regression: next_time() must not commit the epoch advance it scans with —
// scheduling between a peek at a far-future event and the next pop used to
// trip the "cannot schedule into the past" contract.
TEST(CalendarQueueTest, ScheduleAfterNextTimePeekOfFarEvent) {
  sim::CalendarQueue q(1e-6, 8);
  std::vector<double> popped;
  q.schedule(100e-6, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 100e-6);
  // Still allowed: 1us is in the peeked event's past but not the clock's.
  q.schedule(1e-6, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1e-6);
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1e-6, 100e-6}));
}

}  // namespace
}  // namespace aeq
