// Resumable module firings for the cooperative dataflow scheduler.
//
// A module body is a C++20 coroutine returning `Fire`: it runs until a
// stream operation would block, then suspends with a "blocked on stream S
// for read/write" record and returns its worker to the scheduler. The
// cooperative scheduler (`Graph::run`) re-fires a blocked module once a
// FIFO wakeup hook reports the stream ready, so a whole graph runs on any
// number of workers, including one.
//
// The scheduler's per-firing state is carried in a thread-local
// `FireContext`: the StreamBlock awaiter records the blocked stream/op and
// the innermost resume point there, then hands the suspension to the
// scheduler (`suspend_on_stream`); the root firing's final suspend reports
// its result (`complete_firing`). Nested firings (helper coroutines) chain
// through continuations with symmetric transfer, so one module firing is one
// logical stack that always resumes at its innermost suspension point.
//
// Coroutine frames are recycled through a per-module `FrameArena` (an
// exact-size freelist): after the first batch warms the arena, steady-state
// firings allocate nothing — preserving the zero-allocation contract of
// steady_state_alloc_test even though module bodies are now coroutines.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>

#include "common/status.hpp"
#include "dataflow/fifo.hpp"

namespace condor::dataflow {

class FrameArena;

/// Which FIFO endpoint a suspended firing is waiting on.
enum class StreamOp : std::uint8_t { kRead, kWrite };

/// Scheduler-side state for one module firing, published to the coroutine
/// machinery through `active_fire_context()`. The scheduler owns the
/// instance; the StreamBlock awaiter fills the blocked_* fields at every
/// suspension.
struct FireContext {
  Stream* blocked_stream = nullptr;      ///< stream the firing waits on
  StreamOp blocked_op = StreamOp::kRead; ///< endpoint it waits for
  std::coroutine_handle<> resume_point;  ///< innermost suspension to resume
  void* user = nullptr;                  ///< scheduler's per-module record
};

/// Scheduler entry points (defined in graph.cpp). suspend_on_stream runs on
/// the firing's thread when the body would block: it registers the FIFO
/// wakeup and the suspension always stands — the scheduler re-fires the
/// module once the stream reports ready. complete_firing runs exactly once,
/// from the final-suspend point of the *root* firing, with its result.
void suspend_on_stream(FireContext& context) noexcept;
void complete_firing(FireContext& context, Status&& status);

/// The FireContext the current thread is executing under. The scheduler
/// sets this around every resume (coroutine TLS must follow the firing
/// across worker threads); it is nullptr outside module execution.
inline FireContext*& active_fire_context() noexcept {
  thread_local FireContext* ctx = nullptr;
  return ctx;
}

/// Exact-size freelist for coroutine frames. One arena per module: frames of
/// a module's (finitely many) helper coroutines are returned here on
/// destruction and recycled on the next firing, so steady-state runs do not
/// touch the heap. Both lists are intrusive — the links live inside the
/// blocks themselves — so allocate/release never call operator new, which is
/// what keeps frame recycling invisible to the allocation probe in
/// steady_state_alloc_test. Not thread-safe — a module fires on one thread
/// at a time, which is exactly the serialization the schedulers guarantee.
class FrameArena {
 public:
  /// Prefix stored in front of every block so deallocation needs neither
  /// thread-local state nor a size hint, and so the free/all lists need no
  /// side storage. 32 bytes keeps the payload aligned for
  /// __STDCPP_DEFAULT_NEW_ALIGNMENT__.
  struct Header {
    FrameArena* arena;  ///< owning arena, nullptr for plain-malloc blocks
    std::size_t bytes;  ///< payload size (the freelist match key)
    Header* next_all;   ///< every block of this arena, for the destructor
    Header* next_free;  ///< next released block, valid while on the freelist
  };
  static_assert(sizeof(Header) % alignof(std::max_align_t) == 0,
                "frame payloads must stay max-aligned behind the header");

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  ~FrameArena() {
    Header* block = all_head_;
    while (block != nullptr) {
      Header* next = block->next_all;
      std::free(block);
      block = next;
    }
  }

  /// Returns a payload pointer for `bytes`, recycling a previously released
  /// frame of the same size when available. A module has only a handful of
  /// distinct frame sizes, so the linear freelist scan is short.
  void* allocate(std::size_t bytes) {
    for (Header** link = &free_head_; *link != nullptr;
         link = &(*link)->next_free) {
      if ((*link)->bytes == bytes) {
        Header* header = *link;
        *link = header->next_free;
        return static_cast<char*>(static_cast<void*>(header)) + sizeof(Header);
      }
    }
    // Each frame owns whole cache lines: modules fire concurrently on
    // different workers, and a frame one worker writes must not share a
    // line with another module's frame (false sharing).
    const std::size_t span = (sizeof(Header) + bytes + detail::kCacheLine - 1) /
                             detail::kCacheLine * detail::kCacheLine;
    void* base = std::aligned_alloc(detail::kCacheLine, span);
    if (base == nullptr) {
      std::abort();  // frame allocation failure is not recoverable
    }
    Header* header = static_cast<Header*>(base);
    header->arena = this;
    header->bytes = bytes;
    header->next_all = all_head_;
    all_head_ = header;
    return static_cast<char*>(base) + sizeof(Header);
  }

  /// Pushes a block onto the freelist for reuse. Never allocates.
  void release(Header* header) {
    header->next_free = free_head_;
    free_head_ = header;
  }

 private:
  Header* free_head_ = nullptr;  ///< released blocks awaiting reuse
  Header* all_head_ = nullptr;   ///< every allocation, freed on destruction
};

/// The arena the current thread allocates coroutine frames from. The
/// scheduler sets this (to the firing module's arena) together with
/// active_fire_context(); frames created with no arena fall back to plain
/// malloc.
inline FrameArena*& active_frame_arena() noexcept {
  thread_local FrameArena* arena = nullptr;
  return arena;
}

/// A module firing (or nested helper firing): an eagerly-created, lazily-
/// started coroutine producing a Status. Root firings are resumed by the
/// scheduler; nested firings are co_awaited by their parent and chain back
/// via symmetric transfer. Move-only owner of the coroutine frame.
class Fire {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  Fire() = default;
  explicit Fire(Handle handle) : handle_(handle) {}
  Fire(Fire&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Fire& operator=(Fire&& other) noexcept {
    if (this != &other) {
      reset();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Fire() { reset(); }

  /// Destroys the frame (must be suspended: initial, a stream block, or
  /// final). Root firings are reset by the scheduler before the run returns
  /// so frames never outlive the module's arena.
  void reset() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  [[nodiscard]] std::coroutine_handle<> handle() const noexcept { return handle_; }

  struct promise_type {
    Status status;
    std::coroutine_handle<> continuation;  ///< parent firing, null for roots
    FireContext* origin = active_fire_context();

    Fire get_return_object() { return Fire(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    /// Final suspend: resume the parent (nested firing) or report completion
    /// to the scheduler (root). Runs with the frame already suspended, so a
    /// scheduler woken by complete_firing may legally destroy the frame.
    struct FinalAwaiter {
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle handle) const noexcept {
        promise_type& promise = handle.promise();
        if (promise.continuation) {
          return promise.continuation;
        }
        if (promise.origin != nullptr) {
          complete_firing(*promise.origin, std::move(promise.status));
        }
        return std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(Status value) noexcept { status = std::move(value); }
    void unhandled_exception() noexcept {
      status = internal_error("unhandled exception in module firing");
    }

    /// Frames come from the firing module's arena (set by the scheduler
    /// before the coroutine is created) and are recycled there on
    /// destruction.
    static void* operator new(std::size_t bytes) {
      FrameArena* arena = active_frame_arena();
      if (arena != nullptr) {
        return arena->allocate(bytes);
      }
      void* base = std::malloc(sizeof(FrameArena::Header) + bytes);
      if (base == nullptr) {
        std::abort();
      }
      auto* header = static_cast<FrameArena::Header*>(base);
      header->arena = nullptr;
      header->bytes = bytes;
      return static_cast<char*>(base) + sizeof(FrameArena::Header);
    }
    static void operator delete(void* payload) noexcept {
      auto* header = reinterpret_cast<FrameArena::Header*>(
          static_cast<char*>(payload) - sizeof(FrameArena::Header));
      if (header->arena != nullptr) {
        header->arena->release(header);
      } else {
        std::free(header);
      }
    }
  };

  /// Awaiting a nested firing: chain the parent as continuation and enter
  /// the child by symmetric transfer; the child's final suspend returns
  /// straight to the parent with the child's Status.
  [[nodiscard]] auto operator co_await() && noexcept {
    struct Awaiter {
      Handle child;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) const noexcept {
        child.promise().continuation = parent;
        return child;
      }
      [[nodiscard]] Status await_resume() const noexcept {
        return std::move(child.promise().status);
      }
    };
    return Awaiter{handle_};
  }

 private:
  Handle handle_;
};

/// Awaiter for "this firing would block on `stream`": records the blocked
/// stream/op and the innermost resume point in the active FireContext, then
/// hands the suspension to the scheduler, which registers the wakeup.
struct StreamBlock {
  Stream* stream;
  StreamOp op;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) const noexcept {
    FireContext& context = *active_fire_context();
    context.blocked_stream = stream;
    context.blocked_op = op;
    context.resume_point = handle;
    suspend_on_stream(context);
  }
  void await_resume() const noexcept {}
};

}  // namespace condor::dataflow

// Statement macros for stream access inside Fire coroutine bodies — the
// paper's blocking reads and writes. The hot path is a plain burst transfer
// (no coroutine frame, no virtual call); only a transfer that stops short
// suspends, and the firing resumes where it left off once the stream is
// ready. The macros carry the whole KPN contract (the close-while-writing
// hard error and the drain-then-EOS read), which is what keeps executions
// bit-identical at any worker count.

/// Reads exactly out.size() elements from `stream` into span `out`;
/// co_returns `on_eos` if the stream closes before the span fills.
#define CONDOR_CO_READ_EXACT(stream, out, on_eos)                             \
  do {                                                                        \
    std::span<float> condor_read_span_ = (out);                               \
    while (!condor_read_span_.empty()) {                                      \
      const ::condor::dataflow::TryTransfer condor_read_r_ =                  \
          (stream).try_read_burst(condor_read_span_);                         \
      condor_read_span_ = condor_read_span_.subspan(condor_read_r_.count);    \
      if (condor_read_span_.empty()) {                                        \
        break;                                                                \
      }                                                                       \
      if (condor_read_r_.closed) {                                            \
        co_return (on_eos);                                                   \
      }                                                                       \
      co_await ::condor::dataflow::StreamBlock{                               \
          &(stream), ::condor::dataflow::StreamOp::kRead};                    \
    }                                                                         \
  } while (false)

/// Reads one element into float lvalue `value`; co_returns `on_eos` at EOS.
#define CONDOR_CO_READ_ONE(stream, value, on_eos) \
  CONDOR_CO_READ_EXACT(stream, std::span<float>(&(value), 1), on_eos)

/// Reads one element into `value` and sets bool lvalue `got` — false means
/// the stream ended cleanly (no error).
#define CONDOR_CO_READ_ONE_OR_EOS(stream, value, got)                         \
  do {                                                                        \
    (got) = false;                                                            \
    for (;;) {                                                                \
      const ::condor::dataflow::TryTransfer condor_readeos_r_ =               \
          (stream).try_read_burst(std::span<float>(&(value), 1));             \
      if (condor_readeos_r_.count == 1) {                                     \
        (got) = true;                                                         \
        break;                                                                \
      }                                                                       \
      if (condor_readeos_r_.closed) {                                         \
        break;                                                                \
      }                                                                       \
      co_await ::condor::dataflow::StreamBlock{                               \
          &(stream), ::condor::dataflow::StreamOp::kRead};                    \
    }                                                                         \
  } while (false)

/// Writes the whole span `items` to `stream` in order; co_returns
/// `on_closed` if the stream is (or becomes) closed first.
#define CONDOR_CO_WRITE_BURST(stream, items, on_closed)                       \
  do {                                                                        \
    std::span<const float> condor_write_span_ = (items);                      \
    for (;;) {                                                                \
      const ::condor::dataflow::TryTransfer condor_write_r_ =                 \
          (stream).try_write_burst(condor_write_span_);                       \
      if (condor_write_r_.closed) {                                           \
        co_return (on_closed);                                                \
      }                                                                       \
      condor_write_span_ = condor_write_span_.subspan(condor_write_r_.count); \
      if (condor_write_span_.empty()) {                                       \
        break;                                                                \
      }                                                                       \
      co_await ::condor::dataflow::StreamBlock{                               \
          &(stream), ::condor::dataflow::StreamOp::kWrite};                   \
    }                                                                         \
  } while (false)

/// Writes one element (any float expression); co_returns `on_closed` if the
/// stream is closed.
#define CONDOR_CO_WRITE_ONE(stream, value, on_closed)                         \
  do {                                                                        \
    const float condor_write_one_v_ = (value);                                \
    CONDOR_CO_WRITE_BURST(                                                    \
        stream, std::span<const float>(&condor_write_one_v_, 1), on_closed);  \
  } while (false)

/// co_return-propagating analog of CONDOR_RETURN_IF_ERROR for Status
/// expressions inside Fire bodies (typically `co_await nested_firing(...)`).
#define CONDOR_CO_RETURN_IF_ERROR(expr)                                       \
  do {                                                                        \
    ::condor::Status condor_co_status_ = (expr);                              \
    if (!condor_co_status_.is_ok()) {                                         \
      co_return std::move(condor_co_status_);                                 \
    }                                                                         \
  } while (false)
