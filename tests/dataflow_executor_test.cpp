// Integration tests of the functional dataflow engine: the accelerator
// simulation must match the golden CPU reference bit-for-bit on every
// model, geometry and batch size (the central correctness property of the
// reproduction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "test_util.hpp"

namespace condor {
namespace {

using testing::TinyNetConfig;

/// Runs `network` through the executor on `data_type`'s datapath and
/// EXPECTs outputs bit-identical to that datapath's oracle: the golden
/// reference for float32, the QuantizedEngine for fixed16 / fixed8.
void expect_dataflow_matches_reference(
    const nn::Network& network, std::size_t batch, std::uint64_t seed,
    const hw::LayerHw* uniform_hw = nullptr,
    nn::DataType data_type = nn::DataType::kFloat32) {
  auto weights = nn::initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();

  std::optional<nn::ReferenceEngine> reference;
  std::optional<nn::QuantizedEngine> quantized;
  if (nn::is_fixed_point(data_type)) {
    auto engine =
        nn::QuantizedEngine::create(network, weights.value(), data_type);
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    quantized.emplace(std::move(engine).value());
  } else {
    auto engine = nn::ReferenceEngine::create(network, weights.value());
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    reference.emplace(std::move(engine).value());
  }

  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = data_type;
  if (uniform_hw != nullptr) {
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i] = *uniform_hw;
    }
  }
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

  const auto inputs = testing::random_inputs(network, batch, seed + 1);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  ASSERT_EQ(outputs.value().size(), batch);

  for (std::size_t i = 0; i < batch; ++i) {
    auto expected = quantized ? quantized->forward(inputs[i])
                              : reference->forward(inputs[i]);
    ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
    EXPECT_EQ(outputs.value()[i].shape().element_count(),
              expected.value().shape().element_count());
    EXPECT_EQ(max_abs_diff(outputs.value()[i], expected.value()), 0.0F)
        << "image " << i << " diverges from the oracle";
  }
}

TEST(DataflowExecutor, SingleConvolutionMatchesReference) {
  TinyNetConfig config;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 7);
}

TEST(DataflowExecutor, ConvolutionWithReluMatchesReference) {
  TinyNetConfig config;
  config.activation = nn::Activation::kReLU;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 11);
}

TEST(DataflowExecutor, ConvolutionWithTanhMatchesReference) {
  TinyNetConfig config;
  config.activation = nn::Activation::kTanH;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 1, 13);
}

TEST(DataflowExecutor, StridedConvolutionMatchesReference) {
  TinyNetConfig config;
  config.in_size = 9;
  config.stride = 2;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 17);
}

TEST(DataflowExecutor, PaddedConvolutionMatchesReference) {
  TinyNetConfig config;
  config.pad = 1;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 19);
}

TEST(DataflowExecutor, ConvPoolMatchesReference) {
  TinyNetConfig config;
  config.with_pool = true;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 23);
}

TEST(DataflowExecutor, AveragePoolMatchesReference) {
  TinyNetConfig config;
  config.with_pool = true;
  config.pool_method = nn::PoolMethod::kAverage;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 2, 29);
}

TEST(DataflowExecutor, FullPipelineWithClassifierMatchesReference) {
  TinyNetConfig config;
  config.with_pool = true;
  config.with_fc = true;
  config.with_softmax = true;
  expect_dataflow_matches_reference(testing::make_tiny_net(config), 3, 31);
}

TEST(DataflowExecutor, Tc1MatchesReference) {
  expect_dataflow_matches_reference(nn::make_tc1(), 4, 37);
}

TEST(DataflowExecutor, LeNetMatchesReference) {
  expect_dataflow_matches_reference(nn::make_lenet(), 2, 41);
}

TEST(DataflowExecutor, Tc1LargerBatchMatchesReference) {
  expect_dataflow_matches_reference(nn::make_tc1(), 16, 43);
}

TEST(DataflowExecutor, FusedFeatureLayersMatchReference) {
  // Cluster conv+pool onto one PE (pe_group fusion) — exercises the outer
  // layer loop, the PE-local fused pass and the filter conditionals.
  TinyNetConfig config;
  config.with_pool = true;
  config.with_fc = true;
  hw::LayerHw fused;
  const nn::Network network = testing::make_tiny_net(config);
  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.layers[1].pe_group = 0;  // conv1
  hw_net.hw.layers[2].pe_group = 0;  // pool1

  auto weights = nn::initialize_weights(network, 47);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(engine.is_ok());
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  ASSERT_EQ(plan.value().pes.size(), 2u);  // fused feature PE + classifier

  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  const auto inputs = testing::random_inputs(network, 3, 53);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto expected = engine.value().forward(inputs[i]);
    ASSERT_TRUE(expected.is_ok());
    EXPECT_EQ(max_abs_diff(outputs.value()[i], expected.value()), 0.0F);
  }
}

TEST(DataflowExecutor, FusedClassifierLayersMatchReference) {
  // Cluster ip1+ip2 onto one PE — exercises a multi-pass inner-product
  // program and, on the fixed datapaths, the PE-local requantization
  // between its two passes. The QuantizedEngine is the oracle on every
  // datapath (it delegates to the golden reference on float32).
  const nn::Network network = nn::make_lenet();
  auto weights = nn::initialize_weights(network, 71);
  ASSERT_TRUE(weights.is_ok());
  const auto inputs = testing::random_inputs(network, 2, 73);
  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16,
        nn::DataType::kFixed8}) {
    SCOPED_TRACE(std::string(nn::to_string(data_type)));
    hw::HwNetwork hw_net = hw::with_default_annotations(network);
    hw_net.hw.data_type = data_type;
    hw_net.hw.layers[5].pe_group = 4;  // ip1
    hw_net.hw.layers[6].pe_group = 4;  // ip2

    auto engine =
        nn::QuantizedEngine::create(network, weights.value(), data_type);
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    auto plan = hw::plan_accelerator(hw_net);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    ASSERT_EQ(plan.value().pes.size(), 5u);  // 4 feature + 1 fused classifier
    ASSERT_EQ(plan.value().pes.back().layer_indices.size(), 2u);

    auto executor =
        dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
    ASSERT_TRUE(executor.is_ok());
    auto outputs = executor.value().run_batch(inputs);
    ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto expected = engine.value().forward(inputs[i]);
      ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
      EXPECT_EQ(max_abs_diff(outputs.value()[i], expected.value()), 0.0F);
    }
  }
}

TEST(DataflowExecutor, StandaloneActivationPeMatchesReference) {
  // An activation as the very first compute layer maps to a standalone
  // element-wise PE with a degenerate 1x1 memory subsystem.
  nn::Network network("act-first");
  nn::LayerSpec input;
  input.name = "data";
  input.kind = nn::LayerKind::kInput;
  input.input_channels = 2;
  input.input_height = 6;
  input.input_width = 6;
  network.add(input);
  nn::LayerSpec act;
  act.name = "relu_in";
  act.kind = nn::LayerKind::kActivation;
  act.activation = nn::Activation::kReLU;
  network.add(act);
  nn::LayerSpec conv;
  conv.name = "conv";
  conv.kind = nn::LayerKind::kConvolution;
  conv.num_output = 3;
  conv.kernel_h = conv.kernel_w = 3;
  network.add(conv);
  ASSERT_TRUE(network.validate().is_ok());

  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  ASSERT_EQ(plan.value().pes.front().kind, hw::PeKind::kElementwise);
  ASSERT_TRUE(plan.value().pes.front().memory.has_value());
  EXPECT_EQ(plan.value().pes.front().memory->window_h, 1u);

  expect_dataflow_matches_reference(network, 2, 79);
}

TEST(DataflowExecutor, RejectsWrongInputShape) {
  const nn::Network network = testing::make_tiny_net(TinyNetConfig{});
  auto weights = nn::initialize_weights(network, 59);
  ASSERT_TRUE(weights.is_ok());
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  std::vector<Tensor> bad = {Tensor(Shape{1, 4, 4})};
  auto result = executor.value().run_batch(bad);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput);
}

TEST(DataflowExecutor, ParallelInputLanesMatchReference) {
  // parallel_in > 1 replicates the memory subsystem in hardware: one filter
  // chain per concurrently-read input map (paper §3.2). The plan, models
  // and HLS own that degree; the executor's results stay bit-exact and its
  // design stays one module per PE.
  const nn::Network network = nn::make_lenet();
  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.layers[2].parallel_in = 4;  // pool1 (20 maps over 4 lanes)
  hw_net.hw.layers[3].parallel_in = 5;  // conv2 (20 maps over 5 lanes)
  ASSERT_TRUE(hw_net.validate().is_ok());

  auto weights = nn::initialize_weights(network, 91);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(engine.is_ok());
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());

  const auto inputs = testing::random_inputs(network, 2, 93);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(outputs.value()[i],
                           engine.value().forward(inputs[i]).value()),
              0.0F);
  }
  // 6 PEs + 2 datamover halves: no module per filter, lane or weight load.
  EXPECT_EQ(executor.value().last_run_stats().modules, 8u);
}

/// Scheduler and FIFO work of one batch, summed over the design.
struct SchedulerWork {
  std::uint64_t fires = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t blocked_reads = 0;
  std::uint64_t blocked_writes = 0;
  std::uint64_t fifo_writes = 0;
  bool operator==(const SchedulerWork&) const = default;
};

SchedulerWork scheduler_work(const dataflow::RunStats& stats) {
  SchedulerWork work;
  for (const dataflow::ModuleRunStats& module : stats.module_stats) {
    work.fires += module.fires;
    work.suspensions += module.blocked;
  }
  for (const dataflow::FifoStats& stream : stats.stream_stats) {
    work.blocked_reads += stream.blocked_reads;
    work.blocked_writes += stream.blocked_writes;
    work.fifo_writes += stream.total_writes;
  }
  return work;
}

class DataflowWiring
    : public ::testing::TestWithParam<std::tuple<const char*, nn::DataType>> {};

TEST_P(DataflowWiring, OneStreamPerPlanEdge) {
  // The executor builds exactly one stream per plan edge, and one module
  // per PE plus the two datamover halves, on every datapath: fixed-point
  // formats travel in-band, a fork is only wiring and weights are resident
  // in the PE programs, so none of them adds a stream or module.
  const auto [model_name, data_type] = GetParam();
  auto network = nn::make_model(model_name);
  ASSERT_TRUE(network.is_ok());
  auto weights = nn::initialize_weights(network.value(), 17);
  ASSERT_TRUE(weights.is_ok());
  hw::HwNetwork hw_net = hw::with_default_annotations(network.value());
  hw_net.hw.data_type = data_type;
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  const auto inputs = testing::random_inputs(network.value(), 2, 19);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  const dataflow::RunStats& stats = executor.value().last_run_stats();
  EXPECT_EQ(stats.streams, plan.value().edges.size());
  EXPECT_EQ(stats.modules, plan.value().pes.size() + 2);
}

TEST_P(DataflowWiring, ColdRunDoesWarmRunSchedulerWork) {
  // The weights are resident in the PE programs from compilation on, so
  // the run that compiles the design hands off exactly what every warm run
  // does: at one scheduler worker the cold run's fires, suspensions,
  // blocked reads/writes and FIFO writes equal the warm run's.
  const auto [model_name, data_type] = GetParam();
  auto network = nn::make_model(model_name);
  ASSERT_TRUE(network.is_ok());
  auto weights = nn::initialize_weights(network.value(), 31);
  ASSERT_TRUE(weights.is_ok());
  hw::HwNetwork hw_net = hw::with_default_annotations(network.value());
  hw_net.hw.data_type = data_type;
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  executor.value().set_scheduler_workers(1);
  const auto inputs = testing::random_inputs(network.value(), 4, 37);

  auto cold = executor.value().run_batch(inputs);
  ASSERT_TRUE(cold.is_ok()) << cold.status().to_string();
  const dataflow::RunStats& cold_stats = executor.value().last_run_stats();
  EXPECT_EQ(cold_stats.workers, 1u);
  EXPECT_GT(cold_stats.weight_bytes_streamed, 0u);
  const SchedulerWork cold_work = scheduler_work(cold_stats);

  auto warm = executor.value().run_batch(inputs);
  ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();
  const dataflow::RunStats& warm_stats = executor.value().last_run_stats();
  EXPECT_EQ(warm_stats.weight_bytes_streamed, 0u);
  const SchedulerWork warm_work = scheduler_work(warm_stats);

  EXPECT_GT(cold_work.fires, 0u);
  EXPECT_EQ(cold_work.fires, warm_work.fires);
  EXPECT_EQ(cold_work.suspensions, warm_work.suspensions);
  EXPECT_EQ(cold_work.blocked_reads, warm_work.blocked_reads);
  EXPECT_EQ(cold_work.blocked_writes, warm_work.blocked_writes);
  EXPECT_EQ(cold_work.fifo_writes, warm_work.fifo_writes);
  ASSERT_EQ(warm.value().size(), cold.value().size());
  for (std::size_t i = 0; i < cold.value().size(); ++i) {
    EXPECT_EQ(max_abs_diff(warm.value()[i], cold.value()[i]), 0.0F)
        << "image " << i << " differs between the cold and warm runs";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDatapaths, DataflowWiring,
    ::testing::Combine(::testing::Values("lenet", "lenet_skip", "tiny_resnet"),
                       ::testing::Values(nn::DataType::kFloat32,
                                         nn::DataType::kFixed16,
                                         nn::DataType::kFixed8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::string(nn::to_string(std::get<1>(info.param)));
    });

/// Host work of one warm batch at one scheduler worker: the scheduler and
/// FIFO counters summed over the design, and the size of the pool it ran on.
struct HostWork : SchedulerWork {
  std::size_t pool_workers = 0;
};

class HostWorkAcrossDegrees
    : public ::testing::TestWithParam<std::tuple<const char*, nn::DataType>> {};

TEST_P(HostWorkAcrossDegrees, ParallelOutIsAPlanDegreeOnly) {
  // parallel_out is the plan's unroll degree: the resource and performance
  // models, the DSE and HLS codegen price it, and the executor computes
  // every pass full-width whatever its value. So at one scheduler worker a
  // warm batch fires, suspends and writes exactly as often at every degree,
  // and the shared pool it runs on is sized for the scheduler alone (it
  // does not grow with the degree). Outputs stay byte-identical.
  const auto [model_name, data_type] = GetParam();
  auto network = nn::make_model(model_name);
  ASSERT_TRUE(network.is_ok());
  auto shapes = network.value().infer_shapes();
  ASSERT_TRUE(shapes.is_ok());
  auto weights = nn::initialize_weights(network.value(), 23);
  ASSERT_TRUE(weights.is_ok());
  const auto inputs = testing::random_inputs(network.value(), 4, 29);

  const auto run_at = [&](std::size_t degree,
                          std::vector<Tensor>& outputs) -> HostWork {
    hw::HwNetwork hw_net = hw::with_default_annotations(network.value());
    hw_net.hw.data_type = data_type;
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i].parallel_out =
          std::min<std::size_t>(degree, shapes.value()[i].output[0]);
    }
    auto plan = hw::plan_accelerator(hw_net);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    auto executor =
        dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
    EXPECT_TRUE(executor.is_ok());
    ThreadPool pool(1);
    executor.value().set_shared_pool(&pool);
    executor.value().set_scheduler_workers(1);
    // The cold run loads the resident weights; the warm run is counted.
    EXPECT_TRUE(executor.value().run_batch(inputs).is_ok());
    auto warm = executor.value().run_batch(inputs);
    EXPECT_TRUE(warm.is_ok()) << warm.status().to_string();
    outputs = std::move(warm).value();
    const dataflow::RunStats& stats = executor.value().last_run_stats();
    EXPECT_EQ(stats.workers, 1u);
    return HostWork{scheduler_work(stats), pool.worker_count()};
  };

  std::vector<Tensor> baseline_outputs;
  const HostWork baseline = run_at(1, baseline_outputs);
  ASSERT_EQ(baseline_outputs.size(), inputs.size());
  EXPECT_GT(baseline.fires, 0u);
  EXPECT_EQ(baseline.pool_workers, 1u);
  for (const std::size_t degree : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("parallel_out = " + std::to_string(degree));
    std::vector<Tensor> outputs;
    const HostWork work = run_at(degree, outputs);
    // Same batch at every degree, so equal totals are equal per-image counts.
    EXPECT_EQ(work.fires, baseline.fires);
    EXPECT_EQ(work.suspensions, baseline.suspensions);
    EXPECT_EQ(work.blocked_reads, baseline.blocked_reads);
    EXPECT_EQ(work.blocked_writes, baseline.blocked_writes);
    EXPECT_EQ(work.fifo_writes, baseline.fifo_writes);
    EXPECT_EQ(work.pool_workers, baseline.pool_workers)
        << "the pool grew with the unroll degree";
    ASSERT_EQ(outputs.size(), baseline_outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      EXPECT_EQ(max_abs_diff(outputs[i], baseline_outputs[i]), 0.0F)
          << "image " << i << " diverges from parallel_out = 1";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDatapaths, HostWorkAcrossDegrees,
    ::testing::Combine(::testing::Values("lenet", "tiny_resnet"),
                       ::testing::Values(nn::DataType::kFloat32,
                                         nn::DataType::kFixed16,
                                         nn::DataType::kFixed8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::string(nn::to_string(std::get<1>(info.param)));
    });

TEST(DataflowExecutor, ParallelOutSweepMatchesReference) {
  // parallel_out > 1 partitions each pass's output channels across compute
  // lanes (the paper's intra-layer unfolding). Sweep degrees including
  // non-divisors of LeNet's map counts (conv1: 20, conv2: 50, ip2: 10);
  // every degree must stay bit-exact against the golden reference.
  const nn::Network network = nn::make_lenet();
  for (const std::size_t degree : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{7}}) {
    SCOPED_TRACE("parallel_out = " + std::to_string(degree));
    hw::LayerHw uniform;
    uniform.parallel_out = degree;
    expect_dataflow_matches_reference(network, 2, 101 + degree, &uniform);
  }
}

TEST(DataflowExecutor, ParallelOutDegreesAgreeBitForBit) {
  // Randomized cross-degree check: the same random inputs through executors
  // built at parallel_out 2, 4 and 7 must reproduce the sequential
  // (parallel_out = 1) outputs byte for byte, not merely within tolerance —
  // each output element's accumulation chain never leaves its lane.
  TinyNetConfig config;
  config.in_channels = 3;
  config.in_size = 12;
  config.conv_outputs = 10;  // non-multiple of 4 and 7
  config.activation = nn::Activation::kReLU;
  config.with_pool = true;
  config.with_fc = true;
  config.fc_outputs = 9;  // non-multiple of every swept degree
  const nn::Network network = testing::make_tiny_net(config);
  auto weights = nn::initialize_weights(network, 113);
  ASSERT_TRUE(weights.is_ok());
  const auto inputs = testing::random_inputs(network, 3, 127);

  const auto run_at = [&](std::size_t degree) {
    hw::HwNetwork hw_net = hw::with_default_annotations(network);
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i].parallel_out = degree;
    }
    auto plan = hw::plan_accelerator(hw_net);
    EXPECT_TRUE(plan.is_ok()) << plan.status().to_string();
    auto executor =
        dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
    EXPECT_TRUE(executor.is_ok());
    auto outputs = executor.value().run_batch(inputs);
    EXPECT_TRUE(outputs.is_ok()) << outputs.status().to_string();
    return std::move(outputs).value();
  };

  const std::vector<Tensor> baseline = run_at(1);
  ASSERT_EQ(baseline.size(), inputs.size());
  for (const std::size_t degree : {std::size_t{2}, std::size_t{4},
                                   std::size_t{7}}) {
    SCOPED_TRACE("parallel_out = " + std::to_string(degree));
    const std::vector<Tensor> outputs = run_at(degree);
    ASSERT_EQ(outputs.size(), baseline.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      EXPECT_EQ(max_abs_diff(outputs[i], baseline[i]), 0.0F)
          << "image " << i << " diverges from the sequential run";
    }
  }
}

TEST(DataflowExecutor, DseSelectedParallelPlanMatchesReference) {
  // End-to-end DSE -> executor: the exploration on LeNet's feature prefix
  // picks parallel_out > 1 somewhere, and the selected configuration must
  // still validate bit-exact through the dataflow engine.
  const nn::Network network = nn::make_lenet().feature_extraction_prefix();
  auto dse =
      hw::explore(hw::with_default_annotations(network, "aws-f1", 250.0));
  ASSERT_TRUE(dse.is_ok()) << dse.status().to_string();
  const hw::HwNetwork& best = dse.value().best.config;
  std::size_t max_parallel_out = 1;
  for (const hw::LayerHw& layer : best.hw.layers) {
    max_parallel_out = std::max(max_parallel_out, layer.parallel_out);
  }
  ASSERT_GT(max_parallel_out, 1u)
      << "DSE no longer unfolds output channels on LeNet features";

  auto weights = nn::initialize_weights(network, 131);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(engine.is_ok());
  auto plan = hw::plan_accelerator(best);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());

  const auto inputs = testing::random_inputs(network, 2, 137);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(outputs.value()[i],
                           engine.value().forward(inputs[i]).value()),
              0.0F);
  }
}

TEST(DataflowExecutor, ParallelLanesOnFusedPeMatchReference) {
  // Lanes + fusion together: conv+pool fused onto one PE with two lanes.
  testing::TinyNetConfig config;
  config.in_channels = 4;
  config.with_pool = true;
  const nn::Network network = testing::make_tiny_net(config);
  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.layers[1].pe_group = 0;
  hw_net.hw.layers[2].pe_group = 0;
  hw_net.hw.layers[1].parallel_in = 2;
  ASSERT_TRUE(hw_net.validate().is_ok());

  auto weights = nn::initialize_weights(network, 95);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(engine.is_ok());
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  const auto inputs = testing::random_inputs(network, 3, 97);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(outputs.value()[i],
                           engine.value().forward(inputs[i]).value()),
              0.0F);
  }
}

TEST(DataflowExecutor, WeightsLatchOncePerCompiledDesign) {
  // Weight residency: every weighted PE latches its slice exactly once per
  // compiled design, regardless of batch size — and a warm run moves zero
  // weight bytes.
  const nn::Network network = nn::make_tc1();
  auto weights = nn::initialize_weights(network, 83);
  ASSERT_TRUE(weights.is_ok());
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  const std::size_t batch = 3;
  const auto inputs = testing::random_inputs(network, batch, 89);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok());

  // conv1: (6*1*3*3 + 6) weights once; conv2: (12*6*4*4 + 12) once;
  // ip1 (classifier): (10*48 + 10) once — batch size never multiplies them.
  const std::uint64_t conv1_expected = 6ull * 9 + 6;
  const std::uint64_t conv2_expected = 12ull * 6 * 16 + 12;
  const std::uint64_t ip1_expected = 10ull * 48 + 10;
  std::vector<std::uint64_t> latched;
  for (std::size_t p = 0; p < plan.value().pes.size(); ++p) {
    auto program = dataflow::build_pe_program(plan.value(), p, weights.value());
    ASSERT_TRUE(program.is_ok()) << program.status().to_string();
    if (program.value().weight_elements() > 0) {
      latched.push_back(program.value().weight_elements());
    }
  }
  EXPECT_EQ(latched, (std::vector<std::uint64_t>{conv1_expected,
                                                 conv2_expected,
                                                 ip1_expected}));
  EXPECT_EQ(executor.value().last_run_stats().weight_bytes_streamed,
            (conv1_expected + conv2_expected + ip1_expected) * sizeof(float));

  // Warm run over the same design: zero weight bytes.
  auto warm = executor.value().run_batch(inputs);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(executor.value().last_run_stats().weight_bytes_streamed, 0u);
}

TEST(DataflowExecutor, RepeatedRunBatchIsBitIdentical) {
  // The executor compiles its design once and reuses graph + pool across
  // calls; every subsequent batch must still match the reference exactly
  // (reopened streams carry no state over, stats are per-run).
  const nn::Network network = nn::make_tc1();
  auto weights = nn::initialize_weights(network, 101);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(engine.is_ok());
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());

  const auto inputs = testing::random_inputs(network, 3, 103);
  auto first = executor.value().run_batch(inputs);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const dataflow::RunStats first_stats = executor.value().last_run_stats();
  EXPECT_GT(first_stats.weight_bytes_streamed, 0u);

  // The first warm run establishes the steady-state per-stream traffic;
  // every later warm run must match it exactly. The weights are resident
  // from compilation on, so the cold run moves the same traffic.
  std::optional<dataflow::RunStats> warm_stats;
  for (int run = 0; run < 3; ++run) {
    auto again = executor.value().run_batch(inputs);
    ASSERT_TRUE(again.is_ok()) << "run " << run << ": "
                               << again.status().to_string();
    ASSERT_EQ(again.value().size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(max_abs_diff(again.value()[i], first.value()[i]), 0.0F)
          << "run " << run << " image " << i << " differs from the first run";
    }
    const dataflow::RunStats stats = executor.value().last_run_stats();
    EXPECT_EQ(stats.weight_bytes_streamed, 0u) << "run " << run;
    ASSERT_EQ(stats.stream_stats.size(), first_stats.stream_stats.size());
    if (!warm_stats.has_value()) {
      warm_stats = stats;
      // Warm traffic equals cold traffic on every stream.
      for (std::size_t s = 0; s < stats.stream_stats.size(); ++s) {
        EXPECT_EQ(stats.stream_stats[s].total_writes,
                  first_stats.stream_stats[s].total_writes);
      }
      continue;
    }
    for (std::size_t s = 0; s < stats.stream_stats.size(); ++s) {
      EXPECT_EQ(stats.stream_stats[s].total_writes,
                warm_stats->stream_stats[s].total_writes);
    }
  }
  // A different batch through the same compiled design also stays exact.
  const auto other = testing::random_inputs(network, 5, 107);
  auto outputs = executor.value().run_batch(other);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  for (std::size_t i = 0; i < other.size(); ++i) {
    EXPECT_EQ(max_abs_diff(outputs.value()[i],
                           engine.value().forward(other[i]).value()),
              0.0F);
  }
}

TEST(DataflowExecutor, ImagesOverlapInThePipeline) {
  // Multi-image pipelining: with per-image weight drains gone and inter-PE
  // edges sized to hold a full blob, image k+1 enters the graph while image
  // k is still in flight. The datamover framing counters prove it.
  const nn::Network network = nn::make_lenet();
  auto weights = nn::initialize_weights(network, 131);
  ASSERT_TRUE(weights.is_ok());
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  const auto inputs = testing::random_inputs(network, 4, 137);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  const dataflow::RunStats& stats = executor.value().last_run_stats();
  EXPECT_GE(stats.images_in_flight_hwm, 2u)
      << "batch of 4 never held two images in flight: pipeline serialized";
  EXPECT_LE(stats.images_in_flight_hwm, inputs.size());
}

TEST(DataflowExecutor, ParallelismMatrixStaysBitExact) {
  // The acceptance matrix of the parallel_in execution path: every numeric
  // datapath x parallel_out {1,2,4} x parallel_in {1,2} x instances {1,2}
  // must reproduce its software oracle byte for byte.
  const nn::Network network = nn::make_tc1();
  auto weights = nn::initialize_weights(network, 149);
  ASSERT_TRUE(weights.is_ok());
  auto fengine = nn::ReferenceEngine::create(network, weights.value());
  ASSERT_TRUE(fengine.is_ok());
  const auto inputs = testing::random_inputs(network, 4, 151);

  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16,
        nn::DataType::kFixed8}) {
    const bool fixed = nn::is_fixed_point(data_type);
    std::optional<nn::QuantizedEngine> qengine;
    if (fixed) {
      auto engine =
          nn::QuantizedEngine::create(network, weights.value(), data_type);
      ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
      qengine = std::move(engine).value();
    }
    std::vector<Tensor> expected;
    for (const Tensor& image : inputs) {
      auto oracle =
          fixed ? qengine->forward(image) : fengine.value().forward(image);
      ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
      expected.push_back(std::move(oracle).value());
    }
    for (const std::size_t parallel_out :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t parallel_in : {std::size_t{1}, std::size_t{2}}) {
        for (const std::size_t instances :
             {std::size_t{1}, std::size_t{2}}) {
          SCOPED_TRACE(strings::format(
              "%s po=%zu pi=%zu inst=%zu",
              std::string(nn::to_string(data_type)).c_str(), parallel_out,
              parallel_in, instances));
          hw::HwNetwork hw_net = hw::with_default_annotations(network);
          hw_net.hw.data_type = data_type;
          for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
            hw_net.hw.layers[i].parallel_out = parallel_out;
            // conv1 sees one input map; parallel_in applies downstream.
            if (i >= 2) {
              hw_net.hw.layers[i].parallel_in = parallel_in;
            }
          }
          ASSERT_TRUE(hw_net.validate().is_ok());
          auto plan = hw::plan_accelerator(hw_net);
          ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
          auto pool = dataflow::ExecutorPool::create(
              std::move(plan).value(), weights.value(), instances);
          ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
          auto outputs = pool.value().run_batch(inputs);
          ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
          ASSERT_EQ(outputs.value().size(), inputs.size());
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            EXPECT_EQ(max_abs_diff(outputs.value()[i], expected[i]), 0.0F)
                << "image " << i << " diverges from the oracle";
          }
        }
      }
    }
  }
}

TEST(DataflowExecutor, EmptyBatchIsOk) {
  const nn::Network network = testing::make_tiny_net(TinyNetConfig{});
  auto weights = nn::initialize_weights(network, 61);
  ASSERT_TRUE(weights.is_ok());
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok());
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());
  auto result = executor.value().run_batch({});
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().empty());
}

// ---- Parameterized geometry sweep (property-style) ----------------------

struct GeometryParam {
  std::size_t in_channels;
  std::size_t in_size;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
};

class DataflowGeometry : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(DataflowGeometry, MatchesReference) {
  // Every datapath: the fixed PEs run the integer row kernels over the
  // padded code frame at x_stride = stride, and the QuantizedEngine's
  // convolution is a scalar loop, so strided and padded fixed convolutions
  // meet an independent oracle here.
  const GeometryParam& param = GetParam();
  TinyNetConfig config;
  config.in_channels = param.in_channels;
  config.in_size = param.in_size;
  config.kernel = param.kernel;
  config.stride = param.stride;
  config.pad = param.pad;
  config.conv_outputs = 2;
  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16,
        nn::DataType::kFixed8}) {
    SCOPED_TRACE(std::string(nn::to_string(data_type)));
    expect_dataflow_matches_reference(
        testing::make_tiny_net(config), 2,
        1000 + param.in_size * 10 + param.kernel, nullptr, data_type);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowSweep, DataflowGeometry,
    ::testing::Values(GeometryParam{1, 6, 1, 1, 0},   // 1x1 window
                      GeometryParam{1, 6, 2, 1, 0},   // even window
                      GeometryParam{1, 7, 3, 1, 0},   // odd window
                      GeometryParam{2, 8, 3, 1, 0},   // multi-channel
                      GeometryParam{3, 9, 4, 1, 0},   // wide window
                      GeometryParam{1, 12, 5, 1, 0},  // LeNet-style 5x5
                      GeometryParam{2, 9, 3, 2, 0},   // stride 2
                      GeometryParam{1, 10, 3, 3, 0},  // stride > pad
                      GeometryParam{2, 8, 3, 1, 1},   // SAME-style padding
                      GeometryParam{1, 6, 5, 1, 2},   // heavy padding
                      GeometryParam{4, 6, 3, 1, 1},   // channels > maps
                      GeometryParam{1, 16, 7, 2, 3}));  // big window + stride

}  // namespace
}  // namespace condor
