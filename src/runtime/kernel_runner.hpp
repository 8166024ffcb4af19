// LoadedKernel: the device-side view of a programmed accelerator.
//
// Reconstructs the accelerator plan from the xclbin's network.json section,
// binds runtime-supplied weights (the external weight file loaded into a
// device buffer), and executes batches through the functional dataflow
// engine while reporting *device time* from the batch timing of the PE
// pipeline (sim::simulate_batch) at the achieved kernel clock. This is the
// piece that stands in for the physical FPGA in every deployment path
// (on-premise and F1).
//
// A kernel can be replicated: set_instances(N) stands in for programming N
// compute units (or N F1 slots with the same AFI) behind one kernel handle.
// Batches are sharded dynamically across the replicas by a
// dataflow::ExecutorPool — outputs stay bit-exact and in input order at any
// instance count — and the reported device time is the *maximum* of the
// per-replica batch times, i.e. the wall time of N concurrent devices, not
// their sum.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "common/status.hpp"
#include "dataflow/executor_pool.hpp"
#include "hls/synthesis.hpp"
#include "nn/weights.hpp"
#include "runtime/xclbin.hpp"
#include "sim/accel_sim.hpp"
#include "tensor/tensor.hpp"

namespace condor::runtime {

/// Timing of one kernel invocation.
struct KernelStats {
  std::uint64_t simulated_cycles = 0;  ///< max over instances when sharded
  double clock_mhz = 0.0;
  double simulated_seconds = 0.0;
  double host_wall_seconds = 0.0;  ///< host-side functional simulation time
  std::size_t instances = 1;       ///< replicas the batch was sharded over

  [[nodiscard]] double images_per_second(std::size_t batch) const noexcept {
    return simulated_seconds > 0.0
               ? static_cast<double>(batch) / simulated_seconds
               : 0.0;
  }
};

class LoadedKernel {
 public:
  /// Parses the container and re-runs the (simulated) implementation to
  /// recover the achieved clock — loading a binary onto the device
  /// configures exactly the bitstream that was signed off at build time.
  static Result<LoadedKernel> from_xclbin(const Xclbin& xclbin);

  /// Binds the runtime weights (deserialized Condor weight file bytes) and
  /// builds the executor pool at the current instance count.
  Status load_weights(std::span<const std::byte> weight_file_bytes);

  /// Replicates the accelerator `instances` (>= 1) times. If weights are
  /// already loaded the pool is rebuilt over the same shared plan + weight
  /// store; otherwise the count applies to the next load_weights.
  Status set_instances(std::size_t instances);
  [[nodiscard]] std::size_t instances() const noexcept { return instances_; }

  [[nodiscard]] bool weights_loaded() const noexcept { return pool_ != nullptr; }

  /// Runs one batch (requires load_weights first); safe to call from
  /// multiple command-queue workers — invocations serialize on the kernel.
  /// When `stats_out` is non-null the invocation's stats are also written
  /// there under the same lock (last_stats() alone is not synchronized).
  Result<std::vector<Tensor>> run(std::span<const Tensor> inputs,
                                  KernelStats* stats_out = nullptr);

  [[nodiscard]] const KernelStats& last_stats() const noexcept { return stats_; }
  /// Sharding census of the most recent run (images per instance).
  [[nodiscard]] const dataflow::PoolRunStats* last_shard_stats() const noexcept {
    return pool_ != nullptr ? &pool_->last_pool_stats() : nullptr;
  }
  [[nodiscard]] const hw::AcceleratorPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] double clock_mhz() const noexcept { return clock_mhz_; }
  [[nodiscard]] const hls::SynthesisReport& synthesis_report() const noexcept {
    return synthesis_;
  }

 private:
  LoadedKernel() = default;

  std::shared_ptr<const hw::AcceleratorPlan> plan_;
  std::shared_ptr<const nn::WeightStore> weights_;
  hls::SynthesisReport synthesis_;
  double clock_mhz_ = 0.0;
  /// The plan's pipeline stages at clock_mhz_; fixed once the plan is.
  sim::AcceleratorSim timing_;
  std::size_t instances_ = 1;
  std::unique_ptr<dataflow::ExecutorPool> pool_;
  /// Serializes run() across command-queue workers. Heap-held so the
  /// kernel stays movable (it travels by value out of from_xclbin).
  std::unique_ptr<std::mutex> run_mutex_ = std::make_unique<std::mutex>();
  KernelStats stats_;
};

}  // namespace condor::runtime
