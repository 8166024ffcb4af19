// Fused-pass locality acceptance matrix (PE fusion as a first-class
// execution mode).
//
// The contract under test: a plan whose feature chain is clustered onto
// fused PEs (pe_group annotations) produces BYTE-identical outputs to
//   (a) the software oracle (golden reference for float32, quantized
//       engine for the fixed datapaths), and
//   (b) the unfused plan of the same network,
// across models x numeric datapaths x parallel_out x fusion degrees. Only
// a fused PE's pass 0 crosses the memory subsystem; every later pass runs
// PE-locally, and RunStats::fused_local_passes counts those passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "test_util.hpp"

namespace condor {
namespace {

constexpr std::size_t kWholeStage = std::numeric_limits<std::size_t>::max();

/// Clusters runs of chained feature-extraction layers into fused PE groups
/// of up to `degree` layers each (degree kWholeStage fuses each run whole).
/// Returns the number of fused groups assigned.
std::size_t apply_fusion(hw::HwNetwork& net, std::size_t degree) {
  if (degree < 2) {
    return 0;
  }
  const auto consumers = net.net.consumers().value();
  std::vector<std::vector<std::size_t>> runs;
  std::vector<std::size_t> run;
  const auto flush = [&] {
    if (run.size() >= 2) {
      runs.push_back(run);
    }
    run.clear();
  };
  for (std::size_t i = 1; i < net.net.layer_count(); ++i) {
    const nn::LayerSpec& layer = net.net.layers()[i];
    const bool feature = layer.is_feature_extraction() ||
                         layer.kind == nn::LayerKind::kActivation;
    if (!feature) {
      flush();
      continue;
    }
    if (!run.empty()) {
      const auto prods = net.net.producers(i).value();
      const bool chained = i == run.back() + 1 && prods.size() == 1 &&
                           prods.front() == run.back() &&
                           consumers[run.back()].size() == 1;
      if (!chained) {
        flush();
      }
    }
    run.push_back(i);
  }
  flush();

  int group = 0;
  for (const hw::LayerHw& layer : net.hw.layers) {
    group = std::max(group, layer.pe_group + 1);
  }
  std::size_t fused_groups = 0;
  for (const std::vector<std::size_t>& indices : runs) {
    for (std::size_t u = 0; u < indices.size(); u += degree) {
      const std::size_t span = std::min(degree, indices.size() - u);
      if (span < 2) {
        continue;  // a lone tail layer keeps its dedicated PE
      }
      for (std::size_t m = 0; m < span; ++m) {
        net.hw.layers[indices[u + m]].pe_group = group;
      }
      ++group;
      ++fused_groups;
    }
  }
  return fused_groups;
}

/// The fused passes a plan runs PE-locally per image: passes after the
/// first of every feature / element-wise PE.
std::size_t plan_fused_local_passes(const hw::AcceleratorPlan& plan) {
  std::size_t passes = 0;
  for (const hw::PePlan& pe : plan.pes) {
    if (pe.kind == hw::PeKind::kFeature ||
        pe.kind == hw::PeKind::kElementwise) {
      passes += pe.layer_indices.size() - 1;
    }
  }
  return passes;
}

/// The oracle outputs of `inputs` on `data_type`'s datapath: the golden
/// reference for float32, the quantized engine for the fixed datapaths.
/// Empty, with a recorded failure, when the oracle itself fails.
std::vector<Tensor> oracle_outputs(const nn::Network& network,
                                   const nn::WeightStore& weights,
                                   nn::DataType data_type,
                                   const std::vector<Tensor>& inputs) {
  const auto run_all = [&](const auto& engine) {
    std::vector<Tensor> expected;
    for (const Tensor& image : inputs) {
      auto oracle = engine.forward(image);
      if (!oracle.is_ok()) {
        ADD_FAILURE() << oracle.status().to_string();
        return std::vector<Tensor>{};
      }
      expected.push_back(std::move(oracle).value());
    }
    return expected;
  };
  if (nn::is_fixed_point(data_type)) {
    auto engine = nn::QuantizedEngine::create(network, weights, data_type);
    if (!engine.is_ok()) {
      ADD_FAILURE() << engine.status().to_string();
      return {};
    }
    return run_all(engine.value());
  }
  auto engine = nn::ReferenceEngine::create(network, weights);
  if (!engine.is_ok()) {
    ADD_FAILURE() << engine.status().to_string();
    return {};
  }
  return run_all(engine.value());
}

void expect_fusion_matrix_bit_exact(const nn::Network& network,
                                    std::uint64_t seed) {
  auto weights = nn::initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  const auto inputs = testing::random_inputs(network, 3, seed + 1);
  const auto shapes = network.infer_shapes().value();

  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16,
        nn::DataType::kFixed8}) {
    const std::vector<Tensor> expected =
        oracle_outputs(network, weights.value(), data_type, inputs);
    ASSERT_EQ(expected.size(), inputs.size());

    for (const std::size_t parallel_out : {std::size_t{1}, std::size_t{2}}) {
      for (const std::size_t degree :
           {std::size_t{1}, std::size_t{2}, kWholeStage}) {
        const std::string degree_label =
            degree == kWholeStage ? "whole" : strings::format("%zu", degree);
        SCOPED_TRACE(strings::format(
            "%s po=%zu degree=%s",
            std::string(nn::to_string(data_type)).c_str(), parallel_out,
            degree_label.c_str()));
        hw::HwNetwork hw_net = hw::with_default_annotations(network);
        hw_net.hw.data_type = data_type;
        for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
          hw_net.hw.layers[i].parallel_out =
              std::min(parallel_out, shapes[i].output[0]);
        }
        const std::size_t fused_groups = apply_fusion(hw_net, degree);
        ASSERT_TRUE(hw_net.validate().is_ok())
            << hw_net.validate().to_string();
        auto plan = hw::plan_accelerator(hw_net);
        ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

        auto executor = dataflow::AcceleratorExecutor::create(plan.value(),
                                                              weights.value());
        ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

        // Bit-exact against the oracle == the unfused plan's outputs (the
        // oracle is clustering-independent).
        auto outputs = executor.value().run_batch(inputs);
        ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
        ASSERT_EQ(outputs.value().size(), inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          EXPECT_EQ(max_abs_diff(outputs.value()[i], expected[i]), 0.0F)
              << "fused plan diverges on image " << i;
        }
        const std::size_t fused_passes = plan_fused_local_passes(plan.value());
        EXPECT_EQ(fused_passes > 0, fused_groups > 0);
        EXPECT_EQ(executor.value().last_run_stats().fused_local_passes,
                  fused_passes);
      }
    }
  }
}

TEST(ExecutorFusion, Tc1MatrixBitExact) {
  expect_fusion_matrix_bit_exact(nn::make_tc1(), 211);
}

TEST(ExecutorFusion, LeNetMatrixBitExact) {
  expect_fusion_matrix_bit_exact(nn::make_lenet(), 223);
}

TEST(ExecutorFusion, TinyResnetMatrixBitExact) {
  expect_fusion_matrix_bit_exact(nn::make_tiny_resnet(), 227);
}

TEST(ExecutorFusion, FusedPlanShrinksPeCount) {
  hw::HwNetwork hw_net =
      hw::with_default_annotations(nn::make_lenet().feature_extraction_prefix());
  const std::size_t unfused_pes =
      hw::plan_accelerator(hw_net).value().pes.size();
  ASSERT_GT(apply_fusion(hw_net, 2), 0U);
  auto fused = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  EXPECT_LT(fused.value().pes.size(), unfused_pes);
}

TEST(ExecutorFusion, SmallerPassZeroWindowBitExact) {
  // LeNet pool1 + conv2 on one PE: pass 0 is the 2x2 pooling window, but
  // the planned chain is sized for conv2's 5x5, so in hardware 16 of the
  // 25 filters only forward (the filter conditionals). The executor's PE
  // indexes each pass's own window in place, and conv2 runs PE-locally.
  const nn::Network network = nn::make_lenet();
  auto weights = nn::initialize_weights(network, 239);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  const auto inputs = testing::random_inputs(network, 3, 241);
  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16,
        nn::DataType::kFixed8}) {
    const std::vector<Tensor> expected =
        oracle_outputs(network, weights.value(), data_type, inputs);
    ASSERT_EQ(expected.size(), inputs.size());
    for (const std::size_t parallel_in : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(strings::format(
          "%s pi=%zu", std::string(nn::to_string(data_type)).c_str(),
          parallel_in));
      hw::HwNetwork hw_net = hw::with_default_annotations(network);
      hw_net.hw.data_type = data_type;
      hw_net.hw.layers[2].pe_group = 0;  // pool1
      hw_net.hw.layers[3].pe_group = 0;  // conv2
      hw_net.hw.layers[2].parallel_in = parallel_in;
      ASSERT_TRUE(hw_net.validate().is_ok()) << hw_net.validate().to_string();
      auto plan = hw::plan_accelerator(hw_net);
      ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
      const hw::PePlan& fused = plan.value().pes[1];
      ASSERT_EQ(fused.layer_indices, (std::vector<std::size_t>{2, 3}));
      ASSERT_EQ(fused.parallel_in, parallel_in);
      ASSERT_EQ(fused.memory->window_h, 5U);
      ASSERT_EQ(fused.memory->filters.size(), 25U);

      auto executor = dataflow::AcceleratorExecutor::create(plan.value(),
                                                            weights.value());
      ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();
      auto outputs = executor.value().run_batch(inputs);
      ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
      ASSERT_EQ(outputs.value().size(), inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(max_abs_diff(outputs.value()[i], expected[i]), 0.0F)
            << "image " << i;
      }
      EXPECT_EQ(executor.value().last_run_stats().fused_local_passes, 1U);
    }
  }
}

}  // namespace
}  // namespace condor
