// Accelerator-level batch timing: binds the analytical per-PE timing
// (hw::PerformanceEstimate) to the high-level PE pipeline and answers the
// evaluation's questions:
//
//   * Figure 5 — mean time to process an image vs batch size,
//   * steady-state throughput and GFLOPS at the achieved clock (Table 1).
//
// Each pipeline stage is one PE with a per-image service time s_i (its
// timing interval + window fill, hw::PeTiming::service_cycles). Stages
// hand whole images downstream through unit buffers: a stage starts its
// next image once the next stage has taken the last one. A batch of B
// images then completes image k at  sum(s) + k * max(s)  and the whole
// batch at
//
//     total_cycles(B) = sum(s) + (B - 1) * max(s)
//
// so the mean time per image falls hyperbolically and flattens at the
// bottleneck stage's service time once B exceeds the pipeline depth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/performance_model.hpp"

namespace condor::sim {

using Cycle = std::uint64_t;

/// One pipeline stage: a PE and its per-image service time.
struct StageSpec {
  std::string name;
  Cycle service_cycles = 1;
};

/// One point of the Figure-5 curve.
struct BatchPoint {
  std::size_t batch = 0;
  Cycle total_cycles = 0;
  double mean_ms_per_image = 0.0;
  double gflops = 0.0;
};

struct AcceleratorSim {
  std::vector<StageSpec> stages;
  double frequency_mhz = 0.0;
  std::uint64_t flops_per_image = 0;
};

/// Builds the stage list (one stage per PE, service = interval + fill) from
/// a plan's performance estimate.
AcceleratorSim build_accelerator_sim(const hw::PerformanceEstimate& estimate);

/// Times one batch size with the closed form above. Rejects an empty stage
/// list, a zero service time and a zero batch.
Result<BatchPoint> simulate_batch(const AcceleratorSim& sim, std::size_t batch);

/// Sweeps batch sizes (typically powers of two) for the Figure-5 curve.
Result<std::vector<BatchPoint>> sweep_batches(const AcceleratorSim& sim,
                                              const std::vector<std::size_t>& batches);

/// Steady-state GFLOPS of a long batch (the Table 1 figure). `warm_batch`
/// should comfortably exceed the pipeline depth.
Result<double> steady_state_gflops(const AcceleratorSim& sim,
                                   std::size_t warm_batch = 256);

}  // namespace condor::sim
