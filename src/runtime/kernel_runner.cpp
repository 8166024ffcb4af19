#include "runtime/kernel_runner.hpp"

#include <algorithm>
#include <chrono>

#include "hw/hw_ir.hpp"

namespace condor::runtime {

Result<LoadedKernel> LoadedKernel::from_xclbin(const Xclbin& xclbin) {
  LoadedKernel kernel;
  CONDOR_ASSIGN_OR_RETURN(std::string network_json,
                          xclbin.text_section("network.json"));
  CONDOR_ASSIGN_OR_RETURN(hw::HwNetwork network,
                          hw::from_json_text(network_json));
  CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                          hw::plan_accelerator(network));
  CONDOR_ASSIGN_OR_RETURN(kernel.synthesis_, hls::synthesize(plan));
  kernel.clock_mhz_ = kernel.synthesis_.achieved_clock_mhz;
  CONDOR_ASSIGN_OR_RETURN(
      hw::PerformanceEstimate perf,
      hw::estimate_performance(plan, kernel.synthesis_.resources,
                               kernel.clock_mhz_));
  kernel.timing_ = sim::build_accelerator_sim(perf);
  kernel.plan_ = std::make_shared<const hw::AcceleratorPlan>(std::move(plan));
  return kernel;
}

Status LoadedKernel::load_weights(std::span<const std::byte> weight_file_bytes) {
  CONDOR_ASSIGN_OR_RETURN(nn::WeightStore weights,
                          nn::WeightStore::deserialize(weight_file_bytes));
  std::lock_guard<std::mutex> lock(*run_mutex_);
  auto shared_weights = std::make_shared<const nn::WeightStore>(std::move(weights));
  CONDOR_ASSIGN_OR_RETURN(
      dataflow::ExecutorPool pool,
      dataflow::ExecutorPool::create(plan_, shared_weights, instances_));
  weights_ = std::move(shared_weights);
  pool_ = std::make_unique<dataflow::ExecutorPool>(std::move(pool));
  return Status::ok();
}

Status LoadedKernel::set_instances(std::size_t instances) {
  if (instances == 0) {
    return invalid_input("kernel needs at least one instance");
  }
  std::lock_guard<std::mutex> lock(*run_mutex_);
  if (instances == instances_) {
    return Status::ok();
  }
  if (weights_ != nullptr) {
    // Rebuild the pool over the same shared plan + weight store; nothing is
    // re-parsed or copied, only the replica set changes.
    CONDOR_ASSIGN_OR_RETURN(
        dataflow::ExecutorPool pool,
        dataflow::ExecutorPool::create(plan_, weights_, instances));
    pool_ = std::make_unique<dataflow::ExecutorPool>(std::move(pool));
  }
  instances_ = instances;
  return Status::ok();
}

Result<std::vector<Tensor>> LoadedKernel::run(std::span<const Tensor> inputs,
                                              KernelStats* stats_out) {
  std::lock_guard<std::mutex> lock(*run_mutex_);
  if (pool_ == nullptr) {
    return invalid_input("kernel weights not loaded (call load_weights first)");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                          pool_->run_batch(inputs));
  const auto wall_end = std::chrono::steady_clock::now();

  // Device time from the pipeline's batch timing. With N instances the
  // replicas run concurrently, so the batch's device time is the slowest
  // replica's time over the images it actually executed (the dynamic
  // sharding census), not the sum.
  std::uint64_t max_cycles = 0;
  bool simulated = false;
  for (const std::size_t images : pool_->last_pool_stats().images_per_instance) {
    if (images == 0) {
      continue;
    }
    CONDOR_ASSIGN_OR_RETURN(sim::BatchPoint point,
                            sim::simulate_batch(timing_, images));
    max_cycles = std::max<std::uint64_t>(max_cycles, point.total_cycles);
    simulated = true;
  }
  if (!simulated) {
    CONDOR_ASSIGN_OR_RETURN(sim::BatchPoint point,
                            sim::simulate_batch(timing_, inputs.size()));
    max_cycles = point.total_cycles;
  }

  stats_.simulated_cycles = max_cycles;
  stats_.clock_mhz = clock_mhz_;
  stats_.simulated_seconds =
      static_cast<double>(max_cycles) / (clock_mhz_ * 1e6);
  stats_.host_wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  stats_.instances = pool_->instances();
  if (stats_out != nullptr) {
    *stats_out = stats_;
  }
  return outputs;
}

}  // namespace condor::runtime
