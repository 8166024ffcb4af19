#include "sim/accel_sim.hpp"

#include <algorithm>

namespace condor::sim {

AcceleratorSim build_accelerator_sim(const hw::PerformanceEstimate& estimate) {
  AcceleratorSim sim;
  sim.frequency_mhz = estimate.frequency_mhz;
  sim.flops_per_image = estimate.flops_per_image;
  sim.stages.reserve(estimate.pes.size());
  for (const hw::PeTiming& pe : estimate.pes) {
    sim.stages.push_back(StageSpec{pe.name, pe.service_cycles()});
  }
  return sim;
}

Result<BatchPoint> simulate_batch(const AcceleratorSim& sim, std::size_t batch) {
  if (sim.stages.empty()) {
    return invalid_input("pipeline must have at least one stage");
  }
  if (batch == 0) {
    return invalid_input("batch must be positive");
  }
  Cycle latency = 0;  // the first image's: one pass through every stage
  Cycle bottleneck = 0;
  for (const StageSpec& stage : sim.stages) {
    if (stage.service_cycles == 0) {
      return invalid_input("stage '" + stage.name + "' has zero service time");
    }
    latency += stage.service_cycles;
    bottleneck = std::max(bottleneck, stage.service_cycles);
  }
  BatchPoint point;
  point.batch = batch;
  point.total_cycles = latency + (batch - 1) * bottleneck;
  const double seconds =
      static_cast<double>(point.total_cycles) / (sim.frequency_mhz * 1e6);
  point.mean_ms_per_image = seconds * 1e3 / static_cast<double>(batch);
  point.gflops = static_cast<double>(sim.flops_per_image) *
                 static_cast<double>(batch) / seconds / 1e9;
  return point;
}

Result<std::vector<BatchPoint>> sweep_batches(
    const AcceleratorSim& sim, const std::vector<std::size_t>& batches) {
  std::vector<BatchPoint> points;
  points.reserve(batches.size());
  for (const std::size_t batch : batches) {
    CONDOR_ASSIGN_OR_RETURN(BatchPoint point, simulate_batch(sim, batch));
    points.push_back(point);
  }
  return points;
}

Result<double> steady_state_gflops(const AcceleratorSim& sim,
                                   std::size_t warm_batch) {
  CONDOR_ASSIGN_OR_RETURN(BatchPoint point, simulate_batch(sim, warm_batch));
  return point.gflops;
}

}  // namespace condor::sim
