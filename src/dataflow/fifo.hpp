// Bounded FIFO channel — the communication primitive of the accelerator
// (paper §3.2: "independent elements communicating over FIFOs ... using
// blocking reads and writes").
//
// Semantics match a hardware stream FIFO plus Kahn-process-network
// termination: a transfer stops short while the FIFO is full (write) or
// empty (read), and close() lets the reader drain the remaining elements
// before a read reports end-of-stream. The blocking half of "blocking reads
// and writes" lives in the cooperative scheduler (dataflow/fire.hpp,
// Graph::run): a module firing whose transfer stops short registers a wake
// hook here and suspends, and the peer's next publish or close() wakes it.
// Occupancy statistics feed the FIFO-sizing ablation bench.
//
// Implementation: a cache-line-padded single-producer/single-consumer ring
// buffer. The hot path is lock-free — monotonic head/tail counters with
// acquire/release ordering, peer-position caching so the common case touches
// only the producer's (or consumer's) own cache line. The wake handshake is
// Dekker-style: each side publishes (its position, or its hook), issues a
// seq_cst fence, then checks the other side, so either the publisher sees
// the hook or the suspender's readiness re-check sees the publish.
//
// Exactly one producer and one consumer may use a Fifo at a time — which is
// precisely the dataflow graph's wiring invariant (every stream connects
// one upstream module to one downstream module).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

// ThreadSanitizer does not model atomic_thread_fence: the fence-based wake
// handshake would both warn (-Wtsan) and report false races. Under TSan the
// handshake degrades to a mutex-synchronized hook exchange — semantically a
// classic monitor, which TSan understands.
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
  /// Suspensions of a firing on this stream's consumer / producer endpoint
  /// — the scheduler-hotspot signal surfaced through `condor validate` and
  /// the bench context.
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

/// Result of a burst transfer: how many elements moved, and whether the
/// transfer stopped because the FIFO is closed (for reads: closed *and
/// drained* — a definitive EOS).
struct TryTransfer {
  std::size_t count = 0;
  bool closed = false;
};

namespace detail {

// Fixed rather than std::hardware_destructive_interference_size: the
// library value varies with tuning flags (and GCC warns on every use);
// 64 bytes is correct for every target this project builds on.
inline constexpr std::size_t kCacheLine = 64;

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

  /// Burst read: consumes whatever is available into the front of `out`,
  /// in stream order, and returns without waiting. `closed` is true
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

  /// Burst write: moves as much of `items` as currently fits, in order, and
  /// returns without waiting. `closed` is true — with nothing written —
  /// when the FIFO is closed (writing after close is a hard error the
  /// caller must surface).
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

  /// Signals end-of-stream; the reader drains remaining elements then sees
  /// EOS, and a writer's next transfer fails (error-path teardown). The
  /// registered wakeup hooks fire on both endpoints, so a suspended firing
  /// re-checks readiness and sees the close instead of waiting forever.
  void close() {
    FifoWakeHook* reader_hook = nullptr;
    FifoWakeHook* writer_hook = nullptr;
#if CONDOR_FIFO_TSAN
    {
      std::lock_guard<std::mutex> lock(monitor_mutex_);
      closed_.store(true, std::memory_order_release);
      reader_hook = reader_hook_.load(std::memory_order_relaxed);
      writer_hook = writer_hook_.load(std::memory_order_relaxed);
    }
#else
    closed_.store(true, std::memory_order_release);
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
    closed_.store(false, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    prod_idx_ = 0;
    cons_idx_ = 0;
    cached_tail_ = 0;
    cached_head_ = 0;
    total_writes_.store(0, std::memory_order_relaxed);
    blocked_reads_.store(0, std::memory_order_relaxed);
    blocked_writes_.store(0, std::memory_order_relaxed);
    max_occupancy_.store(0, std::memory_order_relaxed);
    reader_hook_.store(nullptr, std::memory_order_relaxed);
    writer_hook_.store(nullptr, std::memory_order_relaxed);
  }

  /// True when a read would make progress: data available, or closed (the
  /// read then reports EOS). Safe from any thread.
  [[nodiscard]] bool read_ready() const noexcept {
    if (head_.load(std::memory_order_acquire) !=
        tail_.load(std::memory_order_acquire)) {
      return true;
    }
    return closed_.load(std::memory_order_acquire);
  }

  /// True when a write would make progress: free space, or closed (the
  /// write then fails fast). Safe from any thread.
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
    std::lock_guard<std::mutex> lock(monitor_mutex_);
#endif
    reader_hook_.store(hook, std::memory_order_seq_cst);
  }

  /// Registers the cooperative wakeup hook for the producer endpoint.
  void set_writer_hook(FifoWakeHook* hook) noexcept {
#if CONDOR_FIFO_TSAN
    std::lock_guard<std::mutex> lock(monitor_mutex_);
#endif
    writer_hook_.store(hook, std::memory_order_seq_cst);
  }

  /// The suspender half of the cooperative Dekker handshake: after
  /// registering its hook and publishing its blocked state, the scheduler
  /// calls this then re-checks readiness. Pairs with the fence (or mutex
  /// section, under TSan) in wake() and close(), so either
  /// the peer sees the hook or the re-check sees the peer's transition.
  void waiter_sync() noexcept {
#if CONDOR_FIFO_TSAN
    std::lock_guard<std::mutex> lock(monitor_mutex_);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  /// Statistics entry points for the scheduler: one call per suspension of
  /// a firing on this stream's consumer / producer endpoint.
  void record_read_block() noexcept {
    blocked_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_write_block() noexcept {
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
    out.blocked_reads = blocked_reads_.load(std::memory_order_relaxed);
    out.blocked_writes = blocked_writes_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  /// Publishes `count` freshly written elements and runs the reader-side
  /// wake handshake. The wake is unconditional: any pre-filter here (an
  /// empty -> non-empty edge test from a stale tail snapshot, or a relaxed
  /// peek at the hook slot) executes its loads before the head store has
  /// drained the store buffer, while a concurrently suspending reader's
  /// hook/state stores are buffered the same way during its readiness
  /// re-check — the classic two-sided Dekker miss. A suspended firing has
  /// no timed re-check to fall back on, so the handshake must start with
  /// wake()'s seq_cst fence every time. The hook check after the
  /// fence keeps the steady-state cost to the fence itself.
  void publish_write(std::uint64_t head, std::size_t count) {
    const std::uint64_t tail_now = tail_.load(std::memory_order_relaxed);
    head_.store(head + count, std::memory_order_release);
    total_writes_.fetch_add(count, std::memory_order_relaxed);
    const std::uint64_t occupancy = head + count - tail_now;
    if (occupancy > max_occupancy_.load(std::memory_order_relaxed)) {
      max_occupancy_.store(occupancy, std::memory_order_relaxed);
    }
    wake(reader_hook_);
  }

  /// Publishes `count` freshly consumed slots; unconditional wake for the
  /// same reason as publish_write (a full -> non-full or hook pre-filter
  /// would race a concurrently suspending writer).
  void publish_read(std::uint64_t tail, std::size_t count) {
    tail_.store(tail + count, std::memory_order_release);
    wake(writer_hook_);
  }

  /// Wakes the suspended firing registered in `slot`, if any. Dekker
  /// structure — publish position, synchronize, then check for a hook — so
  /// either this side delivers the wake or the suspending side's readiness
  /// re-check sees the published position.
  void wake(const std::atomic<FifoWakeHook*>& slot) {
#if CONDOR_FIFO_TSAN
    FifoWakeHook* hook = nullptr;
    {
      std::lock_guard<std::mutex> lock(monitor_mutex_);
      hook = slot.load(std::memory_order_relaxed);
    }
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    FifoWakeHook* hook = slot.load(std::memory_order_relaxed);
#endif
    if (hook != nullptr) {
      hook->wake();
    }
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
  std::atomic<std::uint64_t> blocked_writes_{0};
  std::atomic<std::uint64_t> max_occupancy_{0};

  // Consumer-owned line.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::size_t cons_idx_ = 0;
  std::uint64_t cached_head_ = 0;
  std::atomic<std::uint64_t> blocked_reads_{0};

  // Shared cold state: EOS flag and the scheduler's wakeup hooks.
  alignas(detail::kCacheLine) std::atomic<bool> closed_{false};
  std::atomic<FifoWakeHook*> reader_hook_{nullptr};
  std::atomic<FifoWakeHook*> writer_hook_{nullptr};
#if CONDOR_FIFO_TSAN
  // The TSan build's monitor over the hook slots and the EOS transition.
  std::mutex monitor_mutex_;
#endif
};

/// All accelerator streams carry single-precision floats.
using Stream = Fifo<float>;

}  // namespace condor::dataflow
