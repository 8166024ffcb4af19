// offline-fixed8: LeNet on the fixed8 datapath, 2-instance ExecutorPool,
// back-to-back run_batch(32) over 256 seeded images. No serve layer: the
// integer datapath (requantization, int MAC kernels, per-edge format words)
// does the work.
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"

namespace condor::bench {
namespace {

constexpr std::size_t kInstances = 2;
constexpr std::size_t kImages = 256;
constexpr std::size_t kBatch = 32;

struct OfflineSystem {
  Model model;
  std::unique_ptr<dataflow::ExecutorPool> pool;
};

Result<OfflineSystem> set_up(std::span<const Tensor> warm) {
  OfflineSystem system;
  CONDOR_ASSIGN_OR_RETURN(system.model, make_model("lenet"));
  hw::HwNetwork design = hw::with_default_annotations(system.model.network);
  design.hw.data_type = nn::DataType::kFixed8;
  CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                          hw::plan_accelerator(design));
  CONDOR_ASSIGN_OR_RETURN(
      dataflow::ExecutorPool pool,
      dataflow::ExecutorPool::create(std::move(plan), system.model.weights,
                                     kInstances));
  system.pool = std::make_unique<dataflow::ExecutorPool>(std::move(pool));
  CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                          system.pool->run_batch(warm));
  return system;
}

}  // namespace

Result<Report> run_offline_fixed8(const RunConfig& config, Tally& tally) {
  const std::vector<Tensor> images =
      make_images(Shape{1, 28, 28}, kImages, config.seed);
  OfflineSystem system;
  CONDOR_ASSIGN_OR_RETURN(
      const double setup_s, repeated_setup(config.trace, [&]() -> Status {
        system = {};
        CONDOR_ASSIGN_OR_RETURN(
            system, set_up(std::span(images).first(kBatch)));
        return Status::ok();
      }));
  CONDOR_ASSIGN_OR_RETURN(
      const std::vector<Tensor> expected,
      oracle_outputs(system.model.network, system.model.weights,
                     nn::DataType::kFixed8, images));
  dataflow::ExecutorPool& pool = *system.pool;

  // Batches draw seeded images; the inputs are built before each call.
  Rng rng(config.seed ^ 0x0ff1'0001ULL);
  std::vector<double> batch_ms;
  std::vector<std::size_t> picks(kBatch);
  std::vector<Tensor> batch(kBatch);
  const std::vector<dataflow::InstanceUtilization> util_before =
      pool.utilization();
  const double start = now_s();
  double busy_s = 0.0;
  while (now_s() - start < config.seconds) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      picks[i] = rng.bounded(kImages);
      batch[i] = images[picks[i]];
    }
    const double begin = now_s();
    Result<std::vector<Tensor>> outputs = pool.run_batch(batch);
    const double end = now_s();
    busy_s += end - begin;
    batch_ms.push_back((end - begin) * 1e3);
    if (config.trace != nullptr) {
      config.trace->add("pool.run_batch", begin, end, batch_ms.size());
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      tally.record(outputs.is_ok(),
                   !outputs.is_ok() ||
                       same_bytes(outputs.value()[i], expected[picks[i]]));
    }
  }
  const double wall_s = now_s() - start;
  for (std::size_t i = 0; i < kInstances; ++i) {
    if (pool.instance(i).last_run_stats().weight_bytes_streamed != 0) {
      tally.gate_failures.fetch_add(1);
    }
  }

  Report report;
  const double images_run = static_cast<double>(batch_ms.size() * kBatch);
  report.end_to_end = end_to_end_metrics(setup_s, quantile(batch_ms, 0.5),
                                         images_run / busy_s);
  report.info = {{"batch_latency_p90_ms", quantile(batch_ms, 0.9), "ms"},
                 {"batch_latency_p99_ms", quantile(batch_ms, 0.99), "ms"},
                 {"batches", static_cast<double>(batch_ms.size()), "count"}};
  if (config.trace != nullptr) {
    report.layers = pool_metrics(util_before, pool.utilization(), wall_s,
                                 batch_ms.size(), batch_ms);
  }
  return report;
}

}  // namespace condor::bench
