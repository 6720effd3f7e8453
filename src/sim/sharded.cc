#include "sim/sharded.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/prof/profiler.h"
#include "sim/assert.h"

namespace aeq::sim {

namespace {

// Log2 bucket of a window/lookahead ratio in 1/16ths (bucket 4 == one
// lookahead exactly); saturates at the histogram edge.
std::size_t window_bucket(double ratio) {
  if (!(ratio > 0.0)) return 0;
  auto scaled = static_cast<std::uint64_t>(ratio * 16.0);
  std::size_t bucket = 0;
  while (scaled > 1 && bucket + 1 < ExecutiveStats::kWindowHistBuckets) {
    scaled >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

double ExecutiveStats::load_imbalance() const {
  std::uint64_t max_busy = 0;
  std::uint64_t sum_busy = 0;
  for (const ShardExecStats& shard : shards) {
    max_busy = std::max(max_busy, shard.busy_cycles);
    sum_busy += shard.busy_cycles;
  }
  if (sum_busy == 0 || shards.empty()) return 0.0;
  const double mean = static_cast<double>(sum_busy) /
                      static_cast<double>(shards.size());
  return static_cast<double>(max_busy) / mean;
}

double ExecutiveStats::barrier_stall_share() const {
  const std::uint64_t busy = total_busy_cycles();
  const std::uint64_t wait = total_wait_cycles();
  if (busy + wait == 0) return 0.0;
  return static_cast<double>(wait) / static_cast<double>(busy + wait);
}

ShardedSimulator::ShardedSimulator(std::size_t num_shards, Time lookahead)
    : lookahead_(lookahead) {
  AEQ_CHECK_GE(num_shards, 1u);
  AEQ_ASSERT_MSG(num_shards == 1 || lookahead_ > 0.0,
                 "conservative sharding needs a positive lookahead (a "
                 "zero-latency cross-shard link would serialize the run)");
  shards_.reserve(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  {
    const util::MutexLock lock(mutex_);
    shard_exec_.resize(num_shards);
  }
  if (serial()) return;  // shard 0 runs inline on the caller
  workers_.reserve(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k); });
  }
}

void ShardedSimulator::set_profiling(
    std::vector<obs::prof::Collector*> collectors) {
  AEQ_ASSERT_MSG(collectors.empty() || collectors.size() == shards_.size(),
                 "set_profiling needs one collector per shard (or none)");
  if (serial()) {
    obs::prof::install(collectors.empty() ? nullptr : collectors[0]);
    return;
  }
  const util::MutexLock lock(mutex_);
  collectors_ = std::move(collectors);
  profiling_ = !collectors_.empty();
  prof_enabled_ = profiling_;
}

ExecutiveStats ShardedSimulator::executive_stats() {
  ExecutiveStats stats;
  stats.windows = windows_;
  stats.backoff_windows = backoff_windows_;
  stats.barrier_cycles = barrier_cycles_;
  stats.window_hist = window_hist_;
  {
    const util::MutexLock lock(mutex_);
    stats.shards = shard_exec_;
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    stats.shards[k].events = shards_[k]->events_processed();
  }
  return stats;
}

ShardedSimulator::~ShardedSimulator() {
  {
    const util::MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedSimulator::worker_loop(std::size_t k) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Time target = 0.0;
    bool profiling = false;
    obs::prof::Collector* collector = nullptr;
    {
      const util::MutexLock lock(mutex_);
      // Wait-time accounting: only when profiling was on both before and
      // after the park, so enabling it mid-park doesn't charge pre-enable
      // idle time to the profile.
      const bool was_profiling = profiling_;
      const obs::prof::Cycles wait_start =
          was_profiling ? obs::prof::cycles_now() : 0;
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.wait(mutex_);
      if (was_profiling && profiling_) {
        const obs::prof::Cycles wait_end = obs::prof::cycles_now();
        shard_exec_[k].wait_cycles +=
            wait_end > wait_start ? wait_end - wait_start : 0;
      }
      if (shutdown_) return;
      seen_epoch = epoch_;
      target = target_;
      profiling = profiling_;
      if (profiling) collector = collectors_[k];
    }
    obs::prof::install(collector);
    const obs::prof::Cycles busy_start =
        profiling ? obs::prof::cycles_now() : 0;
    shards_[k]->run_until(target);
    const obs::prof::Cycles busy_end =
        profiling ? obs::prof::cycles_now() : 0;
    obs::prof::install(nullptr);
    {
      const util::MutexLock lock(mutex_);
      if (profiling) {
        shard_exec_[k].busy_cycles +=
            busy_end > busy_start ? busy_end - busy_start : 0;
      }
      --running_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulator::parallel_window(Time horizon) {
  {
    const util::MutexLock lock(mutex_);
    target_ = horizon;
    running_ = shards_.size();
    ++epoch_;
  }
  work_cv_.notify_all();
  {
    const util::MutexLock lock(mutex_);
    while (running_ != 0) done_cv_.wait(mutex_);
  }
  ++windows_;
}

void ShardedSimulator::run_until(Time t_end) {
  if (serial()) {
    shards_[0]->run_until(t_end);
    return;
  }
  AEQ_CHECK_GE(t_end, now_);
  for (;;) {
    // Safe horizon: the earliest pending event anywhere, plus lookahead.
    // Any cross-shard message produced inside the window lands at least
    // `lookahead_` after its producing event, hence at or beyond the
    // horizon — so no shard can receive a message from its own past.
    Time earliest = std::numeric_limits<Time>::infinity();
    for (auto& shard : shards_) {
      earliest = std::min(earliest, shard->next_event_time());
    }
    if (earliest > t_end) {
      // Nothing left on this side of t_end: just advance the clocks.
      for (auto& shard : shards_) shard->run_until(t_end);
      now_ = t_end;
      return;
    }
    // Back the horizon off by a few ulps: arrival timestamps are computed
    // by the producing shard as tx_start + (ser + delay) — the serial
    // executive's exact expression, kept bit-identical on purpose — and
    // that sum can round up to ~3 ulps below the infinitely-precise
    // earliest + lookahead. The margin is ~1e-16 relative, ten orders of
    // magnitude under any real lookahead, so windows still make progress.
    Time safe = earliest + lookahead_;
    safe -= 4.0 * std::abs(safe) * std::numeric_limits<Time>::epsilon();
    AEQ_DCHECK(safe > earliest);
    const Time horizon = std::min(t_end, safe);
    // Window introspection (deterministic: simulated time only). A window
    // whose horizon is the backed-off safe bound — not the run target —
    // was lookahead-limited; the histogram tracks how much of the
    // theoretical lookahead grain each window achieved.
    if (safe < t_end) ++backoff_windows_;
    ++window_hist_[window_bucket((horizon - now_) / lookahead_)];
    parallel_window(horizon);
    now_ = horizon;
    // Barrier: hand cross-shard mailboxes over while every worker is
    // parked. The callback schedules arrivals >= horizon into the
    // destination shards, which the next window (or iteration) picks up.
    if (barrier_callback_) {
      if (prof_enabled_) {
        const obs::prof::Cycles barrier_start = obs::prof::cycles_now();
        barrier_callback_();
        const obs::prof::Cycles barrier_end = obs::prof::cycles_now();
        barrier_cycles_ +=
            barrier_end > barrier_start ? barrier_end - barrier_start : 0;
      } else {
        barrier_callback_();
      }
    }
    if (now_ >= t_end) return;
  }
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_processed();
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_events();
  return total;
}

}  // namespace aeq::sim
