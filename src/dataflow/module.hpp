// Actor base class for dataflow modules (PEs, joins, datamover halves).
//
// Each module's body is a resumable coroutine (`fire`, returning Fire) that
// communicates exclusively through Fifo channels, mirroring the independent
// always-running hardware blocks of the accelerator. Bodies execute under
// the cooperative readiness-driven scheduler in Graph::run (any worker
// count, including 1). Per-run parameters (the batch and its input tensors)
// arrive through RunContext so the same module graph can be re-executed
// batch after batch without being rebuilt.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dataflow/fire.hpp"
#include "tensor/tensor.hpp"

namespace condor::dataflow {

/// Cross-module telemetry for one graph execution. The datamover halves
/// that frame images bump these counters — the source after pushing each
/// image into the graph, the sink after collecting each output blob — so a
/// run can prove how deeply consecutive images overlapped in the pipeline.
/// The high-water mark is of `injected - retired` sampled at each
/// injection; the sink's counter is read with acquire semantics, so a
/// momentarily stale (low) value can only over-report in-flight depth by
/// images that retired during the sample, never under-report it.
struct RunTelemetry {
  std::atomic<std::uint64_t> images_injected{0};
  std::atomic<std::uint64_t> images_retired{0};
  std::atomic<std::uint64_t> images_in_flight_hwm{0};

  void reset() noexcept {
    images_injected.store(0, std::memory_order_relaxed);
    images_retired.store(0, std::memory_order_relaxed);
    images_in_flight_hwm.store(0, std::memory_order_relaxed);
  }

  void on_image_injected() noexcept {
    const std::uint64_t injected =
        images_injected.fetch_add(1, std::memory_order_acq_rel) + 1;
    const std::uint64_t in_flight =
        injected - images_retired.load(std::memory_order_acquire);
    std::uint64_t hwm = images_in_flight_hwm.load(std::memory_order_relaxed);
    while (in_flight > hwm &&
           !images_in_flight_hwm.compare_exchange_weak(
               hwm, in_flight, std::memory_order_relaxed)) {
    }
  }

  void on_image_retired() noexcept {
    images_retired.fetch_add(1, std::memory_order_acq_rel);
  }
};

/// Per-run parameters shared by every module of one graph execution.
struct RunContext {
  std::size_t batch = 0;             ///< images in this run
  std::span<const Tensor> inputs;    ///< batch inputs (datamover); a view so
                                     ///< shard dispatchers can hand each
                                     ///< instance a sub-range without copying
  RunTelemetry* telemetry = nullptr; ///< optional image-framing counters
};

class Module {
 public:
  /// Scheduler-maintained execution counters for one run: how often the
  /// module was fired (resumed) and how often it suspended on a stream.
  /// Maintained by the scheduler driving the module (module execution is
  /// serialized, so plain integers suffice).
  struct FireCounters {
    std::uint64_t fires = 0;
    std::uint64_t blocked = 0;
  };

  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// The module body: a coroutine that consumes inputs, produces outputs,
  /// and co_returns when the configured workload (the context's batch of
  /// images) is complete. Stream accesses go through the CONDOR_CO_* macros,
  /// so a body suspends when a FIFO would block and its worker moves on to
  /// another ready module.
  /// An error status aborts the whole graph run.
  virtual Fire fire(const RunContext& ctx) = 0;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The arena this module's coroutine frames are recycled through.
  [[nodiscard]] FrameArena& frame_arena() noexcept { return arena_; }
  [[nodiscard]] FireCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const FireCounters& counters() const noexcept {
    return counters_;
  }

 private:
  std::string name_;
  FrameArena arena_;
  FireCounters counters_;
};

}  // namespace condor::dataflow
