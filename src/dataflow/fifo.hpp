// Bounded blocking FIFO channel — the communication primitive of the
// accelerator (paper §3.2: "independent elements communicating over FIFOs
// ... using blocking reads and writes").
//
// Semantics match a hardware stream FIFO plus Kahn-process-network
// termination: writes block while full, reads block while empty, and
// close() lets readers drain remaining elements before read() reports
// end-of-stream. Occupancy statistics feed the FIFO-sizing ablation bench.
//
// Implementation: a cache-line-padded single-producer/single-consumer ring
// buffer. The hot path is lock-free — monotonic head/tail counters with
// acquire/release ordering, peer-position caching so the common case touches
// only the producer's (or consumer's) own cache line. A blocked side first
// spins (skipped on single-core hosts, where the peer cannot run anyway),
// then yields, then parks on a condition variable. Parking is guarded by
// waiter counters with seq_cst fences on both sides of the Dekker-style
// handshake, plus a timed re-check as a liveness backstop.
//
// Exactly one producer thread and one consumer thread may use a Fifo at a
// time — which is precisely the dataflow graph's wiring invariant (every
// stream connects one upstream module to one downstream module).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

// ThreadSanitizer does not model atomic_thread_fence: the fence-based
// park/wake handshake would both warn (-Wtsan) and report false races.
// Under TSan the handshake degrades to unconditional mutex-synchronized
// notification — semantically a classic monitor, which TSan understands.
#if defined(__SANITIZE_THREAD__)
#define CONDOR_FIFO_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CONDOR_FIFO_TSAN 1
#endif
#endif
#ifndef CONDOR_FIFO_TSAN
#define CONDOR_FIFO_TSAN 0
#endif

namespace condor::dataflow {

/// Occupancy/throughput counters, maintained as relaxed atomics by the
/// owning side of each field (writes by the producer, read blocks by the
/// consumer) so the lock-free fast path never serializes on a stats lock.
struct FifoStats {
  std::size_t capacity = 0;
  std::size_t max_occupancy = 0;   ///< high-water mark
  std::uint64_t total_writes = 0;
  std::uint64_t write_blocks = 0;  ///< writes that found the FIFO full
  std::uint64_t read_blocks = 0;   ///< reads that found the FIFO empty
  /// Transitions of an endpoint into a blocked state (parked thread or
  /// suspended cooperative firing) — the scheduler-hotspot signal surfaced
  /// through `condor validate` and the bench context.
  std::uint64_t blocked_reads = 0;
  std::uint64_t blocked_writes = 0;
};

/// Readiness-notification hook for the cooperative scheduler: one endpoint
/// (reader or writer) of a Fifo registers a hook, and the peer invokes
/// wake() from every publish and on close (unconditionally — see
/// publish_write for why edge-filtering the wake is unsound). wake() must
/// be cheap, non-blocking, and tolerant of spurious calls — the scheduler
/// re-checks actual readiness after every wake.
class FifoWakeHook {
 public:
  virtual ~FifoWakeHook() = default;
  virtual void wake() noexcept = 0;
};

/// Result of a non-blocking burst: how many elements transferred, and
/// whether the transfer stopped because the FIFO is closed (for reads:
/// closed *and drained* — a definitive EOS).
struct TryTransfer {
  std::size_t count = 0;
  bool closed = false;
};

namespace detail {

// Fixed rather than std::hardware_destructive_interference_size: the
// library value varies with tuning flags (and GCC warns on every use);
// 64 bytes is correct for every target this project builds on.
inline constexpr std::size_t kCacheLine = 64;

inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spinning only helps when the peer can make progress on another core.
inline unsigned spin_iterations() noexcept {
  static const unsigned iters =
      std::thread::hardware_concurrency() > 1 ? 128U : 0U;
  return iters;
}

inline constexpr unsigned kYieldIterations = 64;

/// Park timeout: a pure liveness backstop — wakeups are delivered via the
/// waiter-counter handshake; the timed re-check bounds the cost of any
/// missed edge to one re-evaluation instead of a hang.
inline constexpr std::chrono::milliseconds kParkRecheck{5};

}  // namespace detail

template <typename T>
class Fifo {
 public:
  explicit Fifo(std::size_t capacity, std::string name = {})
      : capacity_(capacity == 0 ? 1 : capacity),
        name_(std::move(name)),
        ring_(capacity_) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  /// Blocking write of one element. Returns false — without writing — if
  /// the FIFO is (or becomes, while blocked) closed: writing after close()
  /// is a hard error the caller must surface, not undefined behavior.
  bool write(T value) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (!await_space(head)) {
      return false;
    }
    ring_[prod_idx_] = std::move(value);
    advance(prod_idx_);
    publish_write(head, 1);
    return true;
  }

  /// Blocking burst write: moves the whole span into the stream, in order,
  /// publishing each chunk as space frees up (identical blocking semantics
  /// to element-wise writes — progress whenever one slot is free).
  /// Returns false if the FIFO is closed before every element is written.
  bool write_burst(std::span<const T> items) {
    while (!items.empty()) {
      std::uint64_t head = head_.load(std::memory_order_relaxed);
      if (!await_space(head)) {
        return false;
      }
      const std::size_t space = capacity_ - static_cast<std::size_t>(head - cached_tail_);
      const std::size_t chunk = std::min(space, items.size());
      copy_in(items.first(chunk));
      publish_write(head, chunk);
      items = items.subspan(chunk);
    }
    return true;
  }

  /// Blocking read. Returns false when the FIFO is closed and drained.
  bool read(T& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (!await_data(tail)) {
      return false;
    }
    out = std::move(ring_[cons_idx_]);
    advance(cons_idx_);
    publish_read(tail, 1);
    return true;
  }

  /// Non-blocking burst read: consumes whatever is immediately available
  /// into the front of `out` and returns without parking. `closed` is true
  /// only when the FIFO is closed *and* drained (EOS): a close racing the
  /// final writes re-checks the head so published elements are never
  /// dropped.
  TryTransfer try_read_burst(std::span<T> out) {
    std::size_t total = 0;
    while (total < out.size()) {
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (cached_head_ == tail) {
        cached_head_ = head_.load(std::memory_order_acquire);
      }
      if (cached_head_ == tail) {
        if (!closed_.load(std::memory_order_acquire)) {
          return {total, false};
        }
        cached_head_ = head_.load(std::memory_order_acquire);
        if (cached_head_ == tail) {
          return {total, true};
        }
      }
      const std::size_t available = static_cast<std::size_t>(cached_head_ - tail);
      const std::size_t chunk = std::min(available, out.size() - total);
      copy_out(out.subspan(total, chunk));
      publish_read(tail, chunk);
      total += chunk;
    }
    return {total, false};
  }

  /// Non-blocking burst write: moves as much of `items` as currently fits
  /// and returns without parking. `closed` is true when the FIFO is closed
  /// (writing after close is a hard error the caller must surface).
  TryTransfer try_write_burst(std::span<const T> items) {
    if (closed_.load(std::memory_order_acquire)) {
      return {0, true};
    }
    std::size_t total = 0;
    while (total < items.size()) {
      const std::uint64_t head = head_.load(std::memory_order_relaxed);
      if (head - cached_tail_ >= capacity_) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (head - cached_tail_ >= capacity_) {
          return {total, false};
        }
      }
      const std::size_t space =
          capacity_ - static_cast<std::size_t>(head - cached_tail_);
      const std::size_t chunk = std::min(space, items.size() - total);
      copy_in(items.subspan(total, chunk));
      publish_write(head, chunk);
      total += chunk;
    }
    return {total, false};
  }

  /// Blocking burst read: fills `out` in stream order, consuming each chunk
  /// as it arrives. Returns the number of elements read — short only when
  /// the FIFO was closed and drained before `out` was full.
  std::size_t read_burst(std::span<T> out) {
    std::size_t total = 0;
    while (total < out.size()) {
      const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
      if (!await_data(tail)) {
        return total;
      }
      const std::size_t available = static_cast<std::size_t>(cached_head_ - tail);
      const std::size_t chunk = std::min(available, out.size() - total);
      copy_out(out.subspan(total, chunk));
      publish_read(tail, chunk);
      total += chunk;
    }
    return total;
  }

  /// Signals end-of-stream; readers drain remaining elements then see EOS.
  /// Also wakes any writer blocked on a full FIFO (error-path teardown):
  /// its pending write fails with `false` instead of hanging forever.
  /// Registered wakeup hooks fire on both endpoints — a cooperatively
  /// suspended firing re-checks readiness and sees the close.
  void close() {
    FifoWakeHook* reader_hook = nullptr;
    FifoWakeHook* writer_hook = nullptr;
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      closed_.store(true, std::memory_order_release);
#if CONDOR_FIFO_TSAN
      reader_hook = reader_hook_.load(std::memory_order_relaxed);
      writer_hook = writer_hook_.load(std::memory_order_relaxed);
#endif
    }
    not_empty_.notify_all();
    not_full_.notify_all();
#if !CONDOR_FIFO_TSAN
    // Pair with the suspending side's waiter_sync() fence: either this load
    // observes a hook registered before the suspension committed, or the
    // suspender's readiness re-check observes closed_.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    reader_hook = reader_hook_.load(std::memory_order_relaxed);
    writer_hook = writer_hook_.load(std::memory_order_relaxed);
#endif
    if (reader_hook != nullptr) {
      reader_hook->wake();
    }
    if (writer_hook != nullptr) {
      writer_hook->wake();
    }
  }

  /// Re-arms a drained FIFO for another run over the same topology (the
  /// executor reuses its compiled graph across batches). Must only be
  /// called while no reader or writer is active. Clears EOS and statistics.
  void reopen() {
    std::lock_guard<std::mutex> lock(park_mutex_);
    closed_.store(false, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    prod_idx_ = 0;
    cons_idx_ = 0;
    cached_tail_ = 0;
    cached_head_ = 0;
    total_writes_.store(0, std::memory_order_relaxed);
    write_blocks_.store(0, std::memory_order_relaxed);
    read_blocks_.store(0, std::memory_order_relaxed);
    blocked_reads_.store(0, std::memory_order_relaxed);
    blocked_writes_.store(0, std::memory_order_relaxed);
    max_occupancy_.store(0, std::memory_order_relaxed);
    reader_hook_.store(nullptr, std::memory_order_relaxed);
    writer_hook_.store(nullptr, std::memory_order_relaxed);
  }

  /// True when a read would make progress: data available, or closed (the
  /// read then reports EOS instead of blocking). Safe from any thread.
  [[nodiscard]] bool read_ready() const noexcept {
    if (head_.load(std::memory_order_acquire) !=
        tail_.load(std::memory_order_acquire)) {
      return true;
    }
    return closed_.load(std::memory_order_acquire);
  }

  /// True when a write would make progress: free space, or closed (the
  /// write then fails fast instead of blocking). Safe from any thread.
  [[nodiscard]] bool write_ready() const noexcept {
    if (closed_.load(std::memory_order_acquire)) {
      return true;
    }
    return head_.load(std::memory_order_acquire) -
               tail_.load(std::memory_order_acquire) <
           capacity_;
  }

  /// Registers the cooperative wakeup hook for the consumer endpoint
  /// (nullptr clears). Hooks are sticky: the scheduler registers once per
  /// suspension and tolerates spurious wakes, so the peer may invoke a
  /// stale hook harmlessly.
  void set_reader_hook(FifoWakeHook* hook) noexcept {
#if CONDOR_FIFO_TSAN
    std::lock_guard<std::mutex> lock(park_mutex_);
#endif
    reader_hook_.store(hook, std::memory_order_seq_cst);
  }

  /// Registers the cooperative wakeup hook for the producer endpoint.
  void set_writer_hook(FifoWakeHook* hook) noexcept {
#if CONDOR_FIFO_TSAN
    std::lock_guard<std::mutex> lock(park_mutex_);
#endif
    writer_hook_.store(hook, std::memory_order_seq_cst);
  }

  /// The suspender half of the cooperative Dekker handshake: after
  /// registering its hook and publishing its blocked state, the scheduler
  /// calls this then re-checks readiness. Pairs with the fence (or mutex
  /// section, under TSan) in wake_reader()/wake_writer()/close(), so either
  /// the peer sees the hook or the re-check sees the peer's transition.
  void waiter_sync() noexcept {
#if CONDOR_FIFO_TSAN
    std::lock_guard<std::mutex> lock(park_mutex_);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  /// Statistics entry points for the cooperative scheduler, which blocks in
  /// its own suspension machinery rather than in await_data/await_space.
  void record_read_block() noexcept {
    read_blocks_.fetch_add(1, std::memory_order_relaxed);
    blocked_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_write_block() noexcept {
    write_blocks_.fetch_add(1, std::memory_order_relaxed);
    blocked_writes_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Elements currently buffered. A snapshot while the endpoints run (tail
  /// is read first so the difference never wraps); exact once both are
  /// quiescent, as in the scheduler's wedge report.
  [[nodiscard]] std::size_t occupancy() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail);
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] FifoStats stats() const {
    FifoStats out;
    out.capacity = capacity_;
    out.max_occupancy = max_occupancy_.load(std::memory_order_relaxed);
    out.total_writes = total_writes_.load(std::memory_order_relaxed);
    out.write_blocks = write_blocks_.load(std::memory_order_relaxed);
    out.read_blocks = read_blocks_.load(std::memory_order_relaxed);
    out.blocked_reads = blocked_reads_.load(std::memory_order_relaxed);
    out.blocked_writes = blocked_writes_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  void advance(std::size_t& idx) noexcept {
    if (++idx == capacity_) {
      idx = 0;
    }
  }

  /// Ensures at least one free slot (refreshing the cached tail), blocking
  /// if necessary. Returns false when the FIFO is closed.
  bool await_space(std::uint64_t head) {
    if (closed_.load(std::memory_order_acquire)) {
      return false;
    }
    if (head - cached_tail_ < capacity_) {
      return true;
    }
    cached_tail_ = tail_.load(std::memory_order_acquire);
    if (head - cached_tail_ < capacity_) {
      return true;
    }
    write_blocks_.fetch_add(1, std::memory_order_relaxed);
    blocked_writes_.fetch_add(1, std::memory_order_relaxed);
    const auto have_space = [&]() noexcept {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      return head - cached_tail_ < capacity_;
    };
    if (!block_until(have_space, parked_writers_, not_full_,
                     /*fail_when_closed=*/true)) {
      return false;  // closed while blocked: the write is a hard error
    }
    return true;
  }

  /// Ensures at least one readable element (refreshing the cached head),
  /// blocking if necessary. Returns false when closed and drained.
  bool await_data(std::uint64_t tail) {
    if (cached_head_ != tail) {
      return true;
    }
    cached_head_ = head_.load(std::memory_order_acquire);
    if (cached_head_ != tail) {
      return true;
    }
    if (closed_.load(std::memory_order_acquire)) {
      // Re-check after the closed flag: a close racing the last writes must
      // not drop elements published before it.
      cached_head_ = head_.load(std::memory_order_acquire);
      return cached_head_ != tail;
    }
    read_blocks_.fetch_add(1, std::memory_order_relaxed);
    blocked_reads_.fetch_add(1, std::memory_order_relaxed);
    const auto have_data = [&]() noexcept {
      cached_head_ = head_.load(std::memory_order_acquire);
      return cached_head_ != tail;
    };
    block_until(have_data, parked_readers_, not_empty_,
                /*fail_when_closed=*/false);
    return cached_head_ != tail;  // false: closed and drained
  }

  /// Spin → yield → park until `ready()` holds or the FIFO is closed.
  /// On close, a writer (`fail_when_closed`) always fails — even if space
  /// freed up concurrently — while a reader drains whatever is published.
  template <typename Ready>
  bool block_until(const Ready& ready, std::atomic<int>& parked,
                   std::condition_variable& cv, bool fail_when_closed) {
    const auto on_close = [&] { return fail_when_closed ? false : ready(); };
    for (unsigned i = detail::spin_iterations(); i != 0; --i) {
      if (closed_.load(std::memory_order_acquire)) {
        return on_close();
      }
      if (ready()) {
        return true;
      }
      detail::spin_pause();
    }
    for (unsigned i = 0; i < detail::kYieldIterations; ++i) {
      if (closed_.load(std::memory_order_acquire)) {
        return on_close();
      }
      if (ready()) {
        return true;
      }
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    parked.fetch_add(1, std::memory_order_seq_cst);
#if !CONDOR_FIFO_TSAN
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    bool ok = false;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) {
        ok = on_close();
        break;
      }
      if (ready()) {
        ok = true;
        break;
      }
      cv.wait_for(lock, detail::kParkRecheck);
    }
    parked.fetch_sub(1, std::memory_order_relaxed);
    return ok;
  }

  /// Publishes `count` freshly written elements and runs the reader-side
  /// wake handshake. The wake is unconditional: any pre-filter here (an
  /// empty -> non-empty edge test from a stale tail snapshot, or a relaxed
  /// peek at the hook slot) executes its loads before the head store has
  /// drained the store buffer, while a concurrently suspending reader's
  /// hook/state stores are buffered the same way during its readiness
  /// re-check — the classic two-sided Dekker miss. Parked threads absorbed
  /// that window via the timed park re-check; cooperative hooks have no
  /// backstop, so the handshake must start with wake_reader()'s seq_cst
  /// fence every time. The waiter-counter and hook checks after the fence
  /// keep the steady-state cost to the fence itself.
  void publish_write(std::uint64_t head, std::size_t count) {
    const std::uint64_t tail_now = tail_.load(std::memory_order_relaxed);
    head_.store(head + count, std::memory_order_release);
    total_writes_.fetch_add(count, std::memory_order_relaxed);
    const std::uint64_t occupancy = head + count - tail_now;
    if (occupancy > max_occupancy_.load(std::memory_order_relaxed)) {
      max_occupancy_.store(occupancy, std::memory_order_relaxed);
    }
    wake_reader();
  }

  /// Publishes `count` freshly consumed slots; unconditional wake for the
  /// same reason as publish_write (a full -> non-full or hook pre-filter
  /// would race a concurrently suspending writer).
  void publish_read(std::uint64_t tail, std::size_t count) {
    tail_.store(tail + count, std::memory_order_release);
    wake_writer();
  }

  /// Wakes the consumer endpoint on the empty -> non-empty transition: a
  /// parked thread via the CV handshake, and/or a cooperatively suspended
  /// firing via its registered hook. Both paths use the same Dekker
  /// structure — publish position, synchronize, then check for a waiter —
  /// so either this side delivers the wake or the suspending side's
  /// readiness re-check sees the published position.
  void wake_reader() {
#if CONDOR_FIFO_TSAN
    FifoWakeHook* hook = nullptr;
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      hook = reader_hook_.load(std::memory_order_relaxed);
    }
    not_empty_.notify_all();
    if (hook != nullptr) {
      hook->wake();
    }
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_readers_.load(std::memory_order_relaxed) != 0) {
      wake(not_empty_);
    }
    if (FifoWakeHook* hook = reader_hook_.load(std::memory_order_relaxed);
        hook != nullptr) {
      hook->wake();
    }
#endif
  }

  /// Wakes the producer endpoint on the full -> non-full transition.
  void wake_writer() {
#if CONDOR_FIFO_TSAN
    FifoWakeHook* hook = nullptr;
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      hook = writer_hook_.load(std::memory_order_relaxed);
    }
    not_full_.notify_all();
    if (hook != nullptr) {
      hook->wake();
    }
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_writers_.load(std::memory_order_relaxed) != 0) {
      wake(not_full_);
    }
    if (FifoWakeHook* hook = writer_hook_.load(std::memory_order_relaxed);
        hook != nullptr) {
      hook->wake();
    }
#endif
  }

  void wake(std::condition_variable& cv) {
    // Taking the park mutex closes the window between a waiter's failed
    // predicate check and its wait(); notify outside the critical section.
    { std::lock_guard<std::mutex> lock(park_mutex_); }
    cv.notify_all();
  }

  /// Copies `items` into the ring starting at prod_idx_ (≤ 2 segments).
  void copy_in(std::span<const T> items) {
    const std::size_t first = std::min(items.size(), capacity_ - prod_idx_);
    std::copy_n(items.data(), first, ring_.data() + prod_idx_);
    std::copy_n(items.data() + first, items.size() - first, ring_.data());
    prod_idx_ += items.size();
    if (prod_idx_ >= capacity_) {
      prod_idx_ -= capacity_;
    }
  }

  /// Copies out of the ring starting at cons_idx_ (≤ 2 segments).
  void copy_out(std::span<T> out) {
    const std::size_t first = std::min(out.size(), capacity_ - cons_idx_);
    std::copy_n(ring_.data() + cons_idx_, first, out.data());
    std::copy_n(ring_.data(), out.size() - first, out.data() + first);
    cons_idx_ += out.size();
    if (cons_idx_ >= capacity_) {
      cons_idx_ -= capacity_;
    }
  }

  const std::size_t capacity_;
  const std::string name_;
  std::vector<T> ring_;

  // Producer-owned line: position, cached peer position, producer stats.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::size_t prod_idx_ = 0;
  std::uint64_t cached_tail_ = 0;
  std::atomic<std::uint64_t> total_writes_{0};
  std::atomic<std::uint64_t> write_blocks_{0};
  std::atomic<std::uint64_t> blocked_writes_{0};
  std::atomic<std::uint64_t> max_occupancy_{0};

  // Consumer-owned line.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::size_t cons_idx_ = 0;
  std::uint64_t cached_head_ = 0;
  std::atomic<std::uint64_t> read_blocks_{0};
  std::atomic<std::uint64_t> blocked_reads_{0};

  // Shared cold state: EOS flag, the park/wake machinery, and the
  // cooperative scheduler's readiness hooks.
  alignas(detail::kCacheLine) std::atomic<bool> closed_{false};
  std::atomic<int> parked_writers_{0};
  std::atomic<int> parked_readers_{0};
  std::atomic<FifoWakeHook*> reader_hook_{nullptr};
  std::atomic<FifoWakeHook*> writer_hook_{nullptr};
  std::mutex park_mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

/// All accelerator streams carry single-precision floats.
using Stream = Fifo<float>;

}  // namespace condor::dataflow
