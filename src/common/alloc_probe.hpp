// Test-injectable heap-allocation probe for steady-state guarantees.
//
// The dataflow modules promise a zero-allocation steady state: after a
// warmup batch has grown every scratch buffer and weight cache to its
// high-water size, later batches must not touch the heap inside the module
// bodies. That promise is enforced by steady_state_alloc_test, which
// overrides the global operator new/delete in its own binary and forwards
// every allocation to AllocProbe::notify().
//
// Counting is doubly gated so production builds and unrelated test threads
// are unaffected:
//   - each instrumented module body holds an AllocProbe::Scope (a
//     thread-local RAII depth marker — only allocations made while a Scope
//     is alive on the calling thread are considered), and
//   - a test arms a global atomic counter via AllocProbe::arm; with no
//     counter armed notify() is a cheap early-out.
// Without the operator-new override (every binary except the alloc test)
// notify() is never called and a Scope is two thread-local increments.
#pragma once

#include <atomic>
#include <cstddef>

namespace condor::common {

class AllocProbe {
 public:
  /// Marks the current thread as "inside an instrumented module body" for
  /// the lifetime of the object. Nestable.
  class Scope {
   public:
    Scope() noexcept { ++depth(); }
    ~Scope() { --depth(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// Suspends counting on the current thread for the lifetime of the
  /// object. Used around the few intentionally-allocating operations inside
  /// an instrumented body — the output tensors that escape to the caller,
  /// not module scratch — so the probe measures exactly the module's own
  /// steady-state promise. Nestable.
  class Pause {
   public:
    Pause() noexcept { ++paused(); }
    ~Pause() { --paused(); }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;
  };

  /// Arms `counter` as the global allocation sink (nullptr disarms).
  /// Returns the previously armed counter so tests can restore it.
  static std::atomic<std::size_t>* arm(
      std::atomic<std::size_t>* counter) noexcept;

  /// Records one allocation event if the calling thread is inside a Scope
  /// and a counter is armed. Called by the test binary's operator new.
  static void notify() noexcept;

 private:
  static int& depth() noexcept;
  static int& paused() noexcept;
};

}  // namespace condor::common
