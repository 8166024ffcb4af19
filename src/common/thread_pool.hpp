// Fixed-size worker pool used by the golden CPU reference (batch inference)
// and the benchmark drivers. Tasks are type-erased void() callables; the pool
// joins on destruction (Core Guidelines CP: no detached threads, async work
// joined before the data it touches dies).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace condor {

/// The host's worker-thread budget: the `CONDOR_THREADS` environment
/// variable when set to a positive integer, otherwise
/// `hardware_concurrency()` (at least 1). Read once and cached — the
/// override exists so deployments can bound total worker growth when many
/// executor instances share one host.
std::size_t thread_budget() noexcept;

class ThreadPool {
 public:
  /// `workers == 0` means thread_budget() (CONDOR_THREADS override or
  /// hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; wake exactly one worker.
  void submit(std::function<void()> task);

  /// Grows the pool to at least `workers` threads (never shrinks). Safe to
  /// call concurrently with submit() and with other ensure_workers() calls:
  /// executor instances share one pool and size it independently.
  void ensure_workers(std::size_t workers);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Convenience: runs fn(i) for i in [0, count) across the pool and waits.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Fork-join over [0, count) that is safe to call from *inside* a pool
  /// task (unlike parallel_for, whose wait_idle() would wait on the calling
  /// task itself). The caller participates: shards are handed out through a
  /// shared counter that the calling thread also drains, so if every worker
  /// is busy (e.g. pinned on blocked dataflow modules) the caller simply
  /// runs all shards itself — helpers that arrive late find the counter
  /// exhausted and return. Completion is tracked by a call-local latch, not
  /// the pool-global idle state. Used for reference-engine output-channel
  /// sharding.
  void parallel_shards(std::size_t count,
                       const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return worker_count_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;     ///< guarded by mutex_
  std::atomic<std::size_t> worker_count_{0};
};

}  // namespace condor
