// Conservative parallel discrete-event executive (PDES over shards).
//
// A ShardedSimulator owns K independent Simulators ("shards") and advances
// them in lockstep lookahead windows: if every pending cross-shard
// interaction takes at least `lookahead` of simulated time to land (the
// minimum cut latency of the partitioned topology), then all events in
//
//   (window_start, min(t_end, earliest_pending + lookahead)]
//
// can run concurrently without any shard observing an effect from another
// shard "from the past". Between windows the coordinator thread runs the
// registered barrier callback, which drains the cross-shard mailboxes
// (net::ShardFabric) and schedules the handed-over packets into their
// destination shards — every message carries an arrival timestamp at least
// `lookahead` after its send, so it always lands at or beyond the horizon
// just executed.
//
// The window horizon is adaptive (bounded-lag / YAWNS style): it chases the
// globally earliest pending event instead of marching in fixed lookahead
// steps, so idle gaps cost one barrier instead of gap/lookahead barriers.
//
// Threading model: one persistent worker thread per shard, parked on a
// condition variable between windows. The coordinator publishes a target
// time, wakes all workers, and waits for the last one to finish. The pool
// mutex orders every cross-window access (mailbox overflow handover, the
// drain callback's schedule_at into foreign shards, next_event_time scans),
// so the protocol is data-race-free by construction — CI runs a 4-shard
// configuration under ThreadSanitizer to keep it that way.
//
// Determinism: shards touch disjoint simulation state, the drain callback
// runs single-threaded in fixed (destination, source, FIFO) order, and each
// shard's Simulator dispatches exactly as it would serially. Same seed ⇒
// same schedule ⇒ same metrics, for any shard count (property-tested in
// tests/sharded_test.cc).
//
// One shard is the serial executive: shard 0 runs inline on the calling
// thread, with no worker thread, no windows and no barrier callback, so a
// K=1 run dispatches exactly what a bare Simulator would.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aeq::obs::prof {
class Collector;
}  // namespace aeq::obs::prof

namespace aeq::sim {

// Introspection snapshot of the PDES executive (DESIGN.md §14). All cycle
// fields are raw timestamp-counter deltas (obs::prof::cycles_now units);
// they are observe-only and never feed back into the simulation.
struct ShardExecStats {
  std::uint64_t busy_cycles = 0;  // inside Simulator::run_until on a window
  std::uint64_t wait_cycles = 0;  // parked between windows (barrier + idle)
  std::uint64_t events = 0;       // events dispatched by this shard
};

struct ExecutiveStats {
  // Log2 histogram of window length in 1/16ths of the lookahead: bucket 4
  // is a window of exactly one lookahead, lower buckets are backed-off or
  // event-sparse windows, higher buckets are idle-gap skips.
  static constexpr std::size_t kWindowHistBuckets = 32;

  std::uint64_t windows = 0;
  // Windows whose horizon was set by the 4-ulp backoff (earliest +
  // lookahead won over t_end) rather than the run target.
  std::uint64_t backoff_windows = 0;
  // Coordinator cycles inside the barrier callback (mailbox drain).
  // Only accumulated while profiling is enabled.
  std::uint64_t barrier_cycles = 0;
  std::array<std::uint64_t, kWindowHistBuckets> window_hist{};
  std::vector<ShardExecStats> shards;

  std::uint64_t total_busy_cycles() const {
    std::uint64_t total = 0;
    for (const ShardExecStats& shard : shards) total += shard.busy_cycles;
    return total;
  }
  std::uint64_t total_wait_cycles() const {
    std::uint64_t total = 0;
    for (const ShardExecStats& shard : shards) total += shard.wait_cycles;
    return total;
  }
  // max(busy) / mean(busy): 1.0 is a perfectly balanced cut, K is one
  // shard doing all the work. 0 when no cycles were measured.
  double load_imbalance() const;
  // Σwait / (Σbusy + Σwait): the fraction of worker wall time spent parked
  // at barriers instead of dispatching events.
  double barrier_stall_share() const;
};

class ShardedSimulator {
 public:
  // With more than one shard `lookahead` must be strictly positive: it is
  // the window depth, and a zero-lookahead cut would serialize the shards
  // one event at a time. One shard has no cut, so any lookahead is ignored.
  ShardedSimulator(std::size_t num_shards, Time lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  Simulator& shard(std::size_t k) { return *shards_.at(k); }
  std::size_t num_shards() const { return shards_.size(); }
  Time lookahead() const { return lookahead_; }

  // Invoked on the coordinator thread after every window, with all workers
  // parked: the only place cross-shard state may move. The callback may
  // schedule new events into any shard (at times >= the window horizon).
  // Never invoked with one shard.
  void set_barrier_callback(std::function<void()> fn) {
    barrier_callback_ = std::move(fn);
  }

  // Advances every shard to exactly `t_end` (their clocks end equal), in
  // conservative windows. Callable repeatedly with increasing targets.
  // With one shard this is shard 0's own run_until.
  void run_until(Time t_end);

  // Simulated time every shard has reached (between run_until calls). With
  // one shard it is shard 0's clock, live inside its handlers too.
  Time now() const { return serial() ? shards_[0]->now() : now_; }

  // Sum of events dispatched across shards. With audit and telemetry off
  // this equals the serial run's count — the cross-shard handoff path
  // schedules one NIC tx-end event plus one arrival event per packet,
  // exactly like the serial two-event link pipeline (checked by the
  // BENCH_hotpath sharded section).
  std::uint64_t events_processed() const;

  std::size_t pending_events() const;

  // Number of lookahead windows executed (barrier count), for perf
  // diagnostics: events_processed / windows_executed is the parallelism
  // grain the cut achieved. Always 0 with one shard.
  std::uint64_t windows_executed() const { return windows_; }

  // Schedule digest across all shards (sim/digest.h). Shards dispatch
  // concurrently, so the merged digest folds the per-shard commutative
  // accumulators; its canonical() equals the serial run's for the same
  // seed. With one shard it is shard 0's digest, ordered fold included.
  // Call only between run_until calls (workers parked).
  void enable_schedule_digest() {
    for (auto& shard : shards_) shard->enable_schedule_digest();
  }
  ScheduleDigest schedule_digest() const {
    if (serial()) return shards_[0]->schedule_digest();
    ScheduleDigest merged;
    for (const auto& shard : shards_) merged.merge(shard->schedule_digest());
    return merged;
  }

  // Profiling handover: `collectors` (one per shard, or empty to disable)
  // are installed as each worker's thread-local profiler collector for
  // subsequent windows, and per-shard busy/wait cycle accounting turns on.
  // With one shard the collector is installed on the calling thread, which
  // runs shard 0. Observe-only — enabling this cannot change the schedule.
  // Call only between run_until calls (workers parked); the pool mutex
  // publishes the pointers to the workers.
  void set_profiling(std::vector<obs::prof::Collector*> collectors);

  // Executive introspection snapshot. Window counts and the window-size
  // histogram are always maintained (they derive from simulated time and
  // cost nothing); cycle fields are nonzero only after set_profiling.
  // Call only between run_until calls.
  ExecutiveStats executive_stats();

 private:
  bool serial() const { return shards_.size() == 1; }
  // Runs every shard to `horizon` on the worker pool and waits for all.
  void parallel_window(Time horizon);
  void worker_loop(std::size_t k);

  std::vector<std::unique_ptr<Simulator>> shards_;
  Time lookahead_;
  Time now_ = 0.0;
  std::uint64_t windows_ = 0;
  std::function<void()> barrier_callback_;

  // Coordinator-thread-only introspection (no lock needed: written in
  // run_until / set_profiling, read in executive_stats, all coordinator
  // calls). The window histogram derives from simulated time, so it is
  // deterministic; the cycle counters are wall-derived and gated on
  // prof_enabled_ so an unprofiled run never reads the TSC here.
  std::uint64_t backoff_windows_ = 0;
  std::uint64_t barrier_cycles_ = 0;
  std::array<std::uint64_t, ExecutiveStats::kWindowHistBuckets>
      window_hist_{};
  bool prof_enabled_ = false;

  // Worker pool: epoch_ increments publish a new window target; running_
  // counts workers still inside it. The lock protocol is machine-checked:
  // every guarded member is only touched under mutex_ (clang
  // -Wthread-safety via the AEQ_THREAD_SAFETY build, DESIGN.md §12).
  util::Mutex mutex_;
  util::CondVar work_cv_;
  util::CondVar done_cv_;
  std::uint64_t epoch_ AEQ_GUARDED_BY(mutex_) = 0;
  Time target_ AEQ_GUARDED_BY(mutex_) = 0.0;
  std::size_t running_ AEQ_GUARDED_BY(mutex_) = 0;
  bool shutdown_ AEQ_GUARDED_BY(mutex_) = false;
  // Profiling handover state: workers read their collector pointer and the
  // flag at each epoch pickup (already under mutex_) and write their cycle
  // totals back under the same lock they use to decrement running_.
  bool profiling_ AEQ_GUARDED_BY(mutex_) = false;
  std::vector<obs::prof::Collector*> collectors_ AEQ_GUARDED_BY(mutex_);
  std::vector<ShardExecStats> shard_exec_ AEQ_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
};

}  // namespace aeq::sim
