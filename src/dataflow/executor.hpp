// AcceleratorExecutor: functional execution of an accelerator plan.
//
// The first run_batch compiles the plan once into a CompiledDesign — the PE
// programs with their chip-resident weights, the spatial Kahn process
// network (datamover halves, one module per PE, the inter-PE streams) — and
// later batches reuse it: streams are re-armed (Fifo::reopen) and the same
// graph runs again on a persistent worker pool instead of re-wiring the
// design and spawning one OS thread per module per batch. The design is
// batch-size independent (the batch arrives through the RunContext), so a
// single compiled instance serves any input count.
//
// Host-side softmax (when the plan defers it) is applied to the collected
// outputs, matching the generated host code of the real flow.
//
// The execution is bit-exact against the software golden reference for the
// plan's numeric datapath (hw::AcceleratorPlan::data_type): against
// nn::ReferenceEngine for float32 plans (identical accumulation orders and
// activation functions) and against nn::QuantizedEngine for fixed16/fixed8
// plans (identical quantization helpers and layer-boundary requantization —
// see nn/numeric.hpp). That equivalence is the core correctness property of
// the reproduction and is enforced by the test suites over every
// synthesizable model in the zoo.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/datamover.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/program.hpp"
#include "hw/accel_plan.hpp"
#include "nn/weights.hpp"
#include "tensor/tensor.hpp"

namespace condor::dataflow {

/// Ceiling (elements) on every inter-PE edge the executor sizes to one
/// image of its traffic. Larger images fall back to smaller depths; KPN
/// results are capacity-independent, only the number of scheduler
/// hand-offs and the image overlap change.
inline constexpr std::size_t kMaxPipelineEdgeDepth = std::size_t{1} << 18;

/// Statistics from one batch run (module/FIFO census for reports + tests).
struct RunStats {
  std::size_t modules = 0;
  std::size_t streams = 0;
  /// The microkernel dispatch level the batch executed with ("scalar",
  /// "avx2" or "avx512" — see nn/kernels_simd.hpp).
  std::string_view simd_level;
  /// Scheduler the batch ran under (always the cooperative scheduler) and
  /// the worker count it used (including the calling thread).
  std::string_view scheduler;
  std::size_t workers = 0;
  /// Weight bytes latched on chip by this run: every PE's canonical slice
  /// total on the run that compiles the design, zero on every warm run —
  /// the residency proof the tests assert on.
  std::uint64_t weight_bytes_streamed = 0;
  /// Bytes of every resident weight block of the compiled design, in the
  /// layouts the kernels read (a property of the design, reported on every
  /// run).
  std::uint64_t resident_weight_bytes = 0;
  /// High-water mark of images simultaneously in flight between the input
  /// mover and the output collector (>= 2 proves consecutive images
  /// overlapped in the pipeline).
  std::uint64_t images_in_flight_hwm = 0;
  /// Fused passes executed PE-locally per image: the sum of
  /// passes-after-the-first over the feature and element-wise PEs (a
  /// property of the plan). Zero when no such PE is fused.
  std::size_t fused_local_passes = 0;
  std::vector<FifoStats> stream_stats;
  /// Per-module fire/blocked counters of the run.
  std::vector<ModuleRunStats> module_stats;
};

class AcceleratorExecutor {
 public:
  /// Validates that `weights` covers the plan's network. The WeightStore is
  /// copied in (the accelerator "loads the weights at runtime").
  static Result<AcceleratorExecutor> create(hw::AcceleratorPlan plan,
                                            nn::WeightStore weights);

  /// Shared-ownership variant: multiple executor instances (an ExecutorPool)
  /// reference one immutable plan + weight store instead of copying them per
  /// instance. Both pointers must be non-null.
  static Result<AcceleratorExecutor> create(
      std::shared_ptr<const hw::AcceleratorPlan> plan,
      std::shared_ptr<const nn::WeightStore> weights);

  /// Runs a batch through the spatial pipeline; inputs must match the
  /// network input shape (vectors convert implicitly). Returns one output
  /// blob per input. The compiled design persists across calls; only the
  /// streamed data changes.
  Result<std::vector<Tensor>> run_batch(std::span<const Tensor> inputs);

  /// Worker-thread target handed to the cooperative scheduler (0 = derive
  /// from thread_budget(); clamped to [1, module_count()] per run).
  void set_scheduler_workers(std::size_t workers) noexcept {
    scheduler_workers_ = workers;
  }

  /// Runs this instance on an externally owned pool instead of a private
  /// one. With the cooperative scheduler many executor instances can share
  /// one host-sized pool (an ExecutorPool does exactly that): worker demand
  /// no longer scales with module_count() per instance. Must be called
  /// before the first run_batch; the pool must outlive the executor.
  void set_shared_pool(ThreadPool* pool) noexcept { shared_pool_ = pool; }

  /// Statistics of the most recent run_batch call.
  [[nodiscard]] const RunStats& last_run_stats() const noexcept { return stats_; }

  [[nodiscard]] const hw::AcceleratorPlan& plan() const noexcept { return *plan_; }

 private:
  /// One compiled accelerator instance. Heap-held so the modules' references
  /// into `programs` and the graph's streams stay stable across moves of
  /// the executor.
  struct CompiledDesign {
    std::vector<PeProgram> programs;
    Graph graph;
    OutputMoverModule* sink = nullptr;
    Shape output_shape;
    /// RunStats::fused_local_passes of every run of this design.
    std::size_t fused_local_passes = 0;
    /// Weight bytes the programs latched on chip at compilation.
    std::uint64_t weight_bytes = 0;
    /// RunStats::resident_weight_bytes of every run of this design.
    std::uint64_t resident_bytes = 0;
    /// Image-framing counters maintained by the datamover halves.
    RunTelemetry telemetry;
  };

  AcceleratorExecutor(std::shared_ptr<const hw::AcceleratorPlan> plan,
                      std::shared_ptr<const nn::WeightStore> weights)
      : plan_(std::move(plan)), weights_(std::move(weights)) {}

  /// Builds programs + graph + modules into design_ (no data movement).
  Status build_design();

  /// The pool this instance runs on: the shared pool when set, else the
  /// lazily created private pool.
  [[nodiscard]] ThreadPool* runtime_pool() const noexcept {
    return shared_pool_ != nullptr ? shared_pool_ : pool_.get();
  }

  std::shared_ptr<const hw::AcceleratorPlan> plan_;
  std::shared_ptr<const nn::WeightStore> weights_;
  std::unique_ptr<CompiledDesign> design_;
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* shared_pool_ = nullptr;
  std::size_t scheduler_workers_ = 0;
  RunStats stats_;
};

}  // namespace condor::dataflow
