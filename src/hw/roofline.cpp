#include "hw/roofline.hpp"

#include <algorithm>

namespace condor::hw {

double RooflineRoofs::attainable_gflops(double intensity) const noexcept {
  return std::min(peak_gflops, intensity * bandwidth_gbps);
}

RooflineRoofs board_roofs(const BoardSpec& board, double frequency_mhz,
                          double dsps_per_mac) {
  RooflineRoofs roofs;
  const double macs =
      static_cast<double>(board.capacity.dsps) / std::max(dsps_per_mac, 1e-9);
  roofs.peak_gflops = macs * 2.0 * frequency_mhz * 1e6 / 1e9;  // 2 FLOP/MAC
  roofs.bandwidth_gbps = board.dram_bandwidth_gbps / 8.0;  // bits -> bytes
  return roofs;
}

Result<RooflinePoint> roofline_point(const AcceleratorPlan& plan,
                                     const PerformanceEstimate& estimate,
                                     std::string name) {
  RooflinePoint point;
  point.name = std::move(name);
  point.achieved_gflops = estimate.gflops();

  // DDR bytes per image: the input blob in, the output blob out, plus every
  // PE's streamed traffic (weight slices, spills).
  if (plan.topology == nullptr) {
    return invalid_input("plan carries no analyzed topology");
  }
  double bytes = static_cast<double>(
      (plan.topology->input_shape().element_count() +
       plan.topology->output_shape().element_count()) *
      sizeof(float));
  for (const PeTiming& pe : estimate.pes) {
    bytes += static_cast<double>(pe.ddr_bytes_per_image);
  }
  if (bytes <= 0.0) {
    return internal_error("design moves no DDR bytes");
  }
  point.intensity = static_cast<double>(estimate.flops_per_image) / bytes;

  const RooflineRoofs roofs =
      board_roofs(plan.board, estimate.frequency_mhz);
  point.attainable_gflops = roofs.attainable_gflops(point.intensity);
  return point;
}

}  // namespace condor::hw
