// stream-b1: a closed loop with one image outstanding, alternating between
// two resident single-instance float32 designs: the plans hw::explore picks
// with fusion degrees up to 4 for LeNet (fused passes, wide parallel_out)
// and tiny_resnet (DAG joins). Batch-1 latency is bound by pipeline fill
// and scheduler hand-off, not by batching.
#include <array>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "nn/models.hpp"

namespace condor::bench {
namespace {

constexpr std::size_t kImages = 64;
constexpr std::array<std::string_view, 2> kDesigns = {"lenet", "tiny_resnet"};

struct Design {
  Model model;
  std::unique_ptr<dataflow::ExecutorPool> pool;
};

Result<Design> set_up(std::string_view name, const Tensor& warm) {
  Design design;
  CONDOR_ASSIGN_OR_RETURN(design.model, make_model(name));
  CONDOR_ASSIGN_OR_RETURN(hw::HwNetwork explored,
                          explored_design(design.model.network));
  CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                          hw::plan_accelerator(explored));
  CONDOR_ASSIGN_OR_RETURN(
      dataflow::ExecutorPool pool,
      dataflow::ExecutorPool::create(std::move(plan), design.model.weights, 1));
  design.pool = std::make_unique<dataflow::ExecutorPool>(std::move(pool));
  // Two warm images: the first compiles and latches the weights.
  for (int i = 0; i < 2; ++i) {
    CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                            design.pool->run_batch(std::span(&warm, 1)));
  }
  return design;
}

}  // namespace

Result<Report> run_stream_b1(const RunConfig& config, Tally& tally) {
  std::array<std::vector<Tensor>, 2> images;
  for (std::size_t d = 0; d < images.size(); ++d) {
    CONDOR_ASSIGN_OR_RETURN(const nn::Network network,
                            nn::make_model(kDesigns[d]));
    CONDOR_ASSIGN_OR_RETURN(const Shape shape, network.input_shape());
    images[d] = make_images(shape, kImages, config.seed + d);
  }
  std::array<Design, 2> designs;
  CONDOR_ASSIGN_OR_RETURN(
      const double setup_s, repeated_setup(config.trace, [&]() -> Status {
        for (std::size_t d = 0; d < designs.size(); ++d) {
          designs[d] = {};
          CONDOR_ASSIGN_OR_RETURN(designs[d], set_up(kDesigns[d], images[d][0]));
        }
        return Status::ok();
      }));
  std::array<std::vector<Tensor>, 2> expected;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    CONDOR_ASSIGN_OR_RETURN(
        expected[d],
        oracle_outputs(designs[d].model.network, designs[d].model.weights,
                       nn::DataType::kFloat32, images[d]));
  }

  Rng rng(config.seed ^ 0x57e4'0001ULL);
  std::array<std::vector<double>, 2> latency_ms;
  double busy_s = 0.0;
  const double start = now_s();
  for (std::uint64_t n = 0; now_s() - start < config.seconds; ++n) {
    const std::size_t d = n % 2;
    const std::size_t image = rng.bounded(kImages);
    const double begin = now_s();
    Result<std::vector<Tensor>> outputs =
        designs[d].pool->run_batch(std::span(&images[d][image], 1));
    const double end = now_s();
    busy_s += end - begin;
    latency_ms[d].push_back((end - begin) * 1e3);
    if (config.trace != nullptr) {
      config.trace->add(d == 0 ? "stream.lenet" : "stream.tiny_resnet", begin,
                        end, n);
    }
    tally.record(outputs.is_ok(), !outputs.is_ok() ||
                                      same_bytes(outputs.value()[0],
                                                 expected[d][image]));
  }
  for (const Design& design : designs) {
    if (design.pool->instance(0).last_run_stats().weight_bytes_streamed != 0) {
      tally.gate_failures.fetch_add(1);
    }
  }

  // The designs' medians, averaged: a pooled median of a two-mode sample
  // would jump between the modes.
  const double p50_ms =
      (quantile(latency_ms[0], 0.5) + quantile(latency_ms[1], 0.5)) / 2.0;
  const double served =
      static_cast<double>(latency_ms[0].size() + latency_ms[1].size());
  Report report;
  report.end_to_end = end_to_end_metrics(setup_s, p50_ms, served / busy_s);
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const std::string name(kDesigns[d]);
    report.info.push_back(
        {name + "_latency_p50_ms", quantile(latency_ms[d], 0.5), "ms"});
    report.info.push_back(
        {name + "_latency_p90_ms", quantile(latency_ms[d], 0.9), "ms"});
    report.info.push_back(
        {name + "_latency_p99_ms", quantile(latency_ms[d], 0.99), "ms"});
    report.info.push_back(
        {name + "_samples", static_cast<double>(latency_ms[d].size()), "count"});
  }
  return report;
}

}  // namespace condor::bench
