// Analytical performance model of the dataflow accelerator.
//
// Models each PE as a pipelined stage with a per-image *interval* (cycles
// of work per image in steady state) and a window *fill* latency. A PE
// drains and refills its sliding window between consecutive images, so it
// accepts a new image every interval + fill cycles: its service time
// (PeTiming::service_cycles). Steady-state GFLOPS = flops_per_image * f /
// bottleneck_interval, where the bottleneck is the slowest service time or
// the datamover's input stream, whichever is longer. The batch timing of
// Figure 5 and Table 1 is sim::simulate_batch's closed form over the same
// service times.
//
// Compute intervals assume II=1 pipelined loops over output points with the
// window fully unrolled (the memory subsystem supplies all window elements
// per cycle) and sequential iteration over feature maps not covered by
// parallel_in/parallel_out. DDR traffic (spilled re-scan input) is converted
// to cycles through the board bandwidth and bounds the interval from below.
// Weights are resident: every PE's slice streams from DDR exactly once per
// design load, so weight traffic charges the first image's latency
// (weight_load_cycles) and never the steady-state interval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/accel_plan.hpp"
#include "hw/resource_model.hpp"

namespace condor::hw {

/// Per-PE timing breakdown.
struct PeTiming {
  std::string name;
  std::uint64_t compute_interval = 0;  ///< cycles/image, compute-bound
  std::uint64_t memory_interval = 0;   ///< cycles/image, DDR-traffic-bound
  std::uint64_t fill_latency = 0;      ///< extra cycles before first output
  std::uint64_t ddr_bytes_per_image = 0;
  /// Weight slice streamed once per design load (residency) — charged to
  /// the first image's latency, not the per-image interval.
  std::uint64_t resident_weight_bytes = 0;
  std::uint64_t weight_load_cycles = 0;

  [[nodiscard]] std::uint64_t interval() const noexcept {
    return std::max(compute_interval, memory_interval);
  }
  /// Cycles between accepting consecutive images: the interval plus the
  /// window drain and refill.
  [[nodiscard]] std::uint64_t service_cycles() const noexcept {
    return interval() + fill_latency;
  }
};

/// Whole-accelerator performance estimate at a given clock.
struct PerformanceEstimate {
  double frequency_mhz = 0.0;
  std::vector<PeTiming> pes;
  std::uint64_t bottleneck_interval = 0;  ///< max service time / input stream
  std::uint64_t image_latency = 0;        ///< first-image latency (cycles)
  std::uint64_t flops_per_image = 0;

  /// Steady-state throughput.
  [[nodiscard]] double images_per_second() const noexcept;
  [[nodiscard]] double gflops() const noexcept;

  [[nodiscard]] std::string to_string() const;
};

/// Estimates timing for `plan` at `frequency_mhz`. `report` supplies the
/// per-PE DDR-spill flags (pass the estimate for the same plan).
Result<PerformanceEstimate> estimate_performance(const AcceleratorPlan& plan,
                                                 const ResourceReport& report,
                                                 double frequency_mhz);

}  // namespace condor::hw
