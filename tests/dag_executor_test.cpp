// DAG topologies end-to-end (ISSUE 8 tentpole): residual and route
// networks must flow frontend -> planner -> dataflow executor and match
// the reference engines bit-for-bit on every datapath. The oracle is
// nn::QuantizedEngine, which delegates to the float golden reference for
// float32 and runs the integer datapath otherwise — one comparison shape
// for all three data types.
#include <gtest/gtest.h>

#include <algorithm>

#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "test_util.hpp"

namespace condor {
namespace {

/// Plans `network` at `data_type` / `parallel_out` (clamped per layer to
/// its output map count) and EXPECTs the executor to match the reference
/// bit-for-bit over `batch` images.
void expect_dag_bit_exact(const nn::Network& network, nn::DataType data_type,
                          std::size_t parallel_out, std::size_t batch,
                          std::uint64_t seed) {
  auto weights = nn::initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();

  auto engine = nn::QuantizedEngine::create(network, weights.value(), data_type);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = data_type;
  if (parallel_out > 1) {
    auto shapes = network.infer_shapes();
    ASSERT_TRUE(shapes.is_ok()) << shapes.status().to_string();
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i].parallel_out =
          std::min(parallel_out, shapes.value()[i].output[0]);
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
    auto expected = engine.value().forward(inputs[i]);
    ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
    EXPECT_EQ(max_abs_diff(outputs.value()[i], expected.value()), 0.0F)
        << "image " << i << " diverges from the reference";
  }
}

// --- tiny-resnet: conv -> [residual add] -> pool -> fc -> softmax ---------

TEST(DagExecutor, TinyResnetFloat32) {
  expect_dag_bit_exact(nn::make_tiny_resnet(), nn::DataType::kFloat32, 1, 3, 71);
}

TEST(DagExecutor, TinyResnetFixed16) {
  expect_dag_bit_exact(nn::make_tiny_resnet(), nn::DataType::kFixed16, 1, 3, 73);
}

TEST(DagExecutor, TinyResnetFixed8) {
  expect_dag_bit_exact(nn::make_tiny_resnet(), nn::DataType::kFixed8, 1, 3, 79);
}

TEST(DagExecutor, TinyResnetParallelLanesFloat32) {
  expect_dag_bit_exact(nn::make_tiny_resnet(), nn::DataType::kFloat32, 2, 2, 83);
}

TEST(DagExecutor, TinyResnetParallelLanesFixed16) {
  expect_dag_bit_exact(nn::make_tiny_resnet(), nn::DataType::kFixed16, 2, 2, 89);
}

// --- lenet-skip: LeNet with a skip connection over the middle block -------

TEST(DagExecutor, LenetSkipFloat32) {
  expect_dag_bit_exact(nn::make_lenet_skip(), nn::DataType::kFloat32, 1, 2, 97);
}

TEST(DagExecutor, LenetSkipFixed16) {
  expect_dag_bit_exact(nn::make_lenet_skip(), nn::DataType::kFixed16, 1, 2, 101);
}

TEST(DagExecutor, LenetSkipFixed8) {
  expect_dag_bit_exact(nn::make_lenet_skip(), nn::DataType::kFixed8, 1, 2, 103);
}

// --- plan topology ---------------------------------------------------------

TEST(DagExecutor, TinyResnetPlanHasJoinPeAndOperandPorts) {
  const nn::Network network = nn::make_tiny_resnet();
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  std::size_t join_pes = 0;
  for (const hw::PePlan& pe : plan.value().pes) {
    if (pe.kind == hw::PeKind::kJoin) {
      ++join_pes;
    }
  }
  EXPECT_EQ(join_pes, network.join_count());

  // Every join PE must be fed on both operand ports.
  for (std::size_t p = 0; p < plan.value().pes.size(); ++p) {
    if (plan.value().pes[p].kind != hw::PeKind::kJoin) {
      continue;
    }
    bool port0 = false;
    bool port1 = false;
    for (const hw::StreamEdge& edge : plan.value().edges) {
      if (edge.to_pe == p && edge.to_pe != hw::StreamEdge::kDatamover) {
        port0 = port0 || edge.to_port == 0;
        port1 = port1 || edge.to_port == 1;
      }
    }
    EXPECT_TRUE(port0 && port1)
        << "join PE '" << plan.value().pes[p].name << "' missing an operand";
  }
}

TEST(DagExecutor, JoinAfterPassZeroIsRejectedAtCompile) {
  // A join reads its second operand from a PE in-port, so it can only be a
  // PE's first pass. The planner never fuses a join behind another layer; a
  // plan that does must fail when the design compiles.
  const nn::Network network = nn::make_lenet_skip();
  auto weights = nn::initialize_weights(network, 7);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  hw::AcceleratorPlan fused = plan.value();
  const auto join =
      std::find_if(fused.pes.begin(), fused.pes.end(), [](const hw::PePlan& pe) {
        return pe.kind == hw::PeKind::kJoin;
      });
  ASSERT_NE(join, fused.pes.end());
  ASSERT_NE(join, fused.pes.begin());
  std::prev(join)->layer_indices.push_back(join->layer_indices.front());

  auto executor =
      dataflow::AcceleratorExecutor::create(std::move(fused), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();
  auto outputs =
      executor.value().run_batch(testing::random_inputs(network, 1, 11));
  ASSERT_FALSE(outputs.is_ok());
  EXPECT_NE(outputs.status().to_string().find("a join may only be the first"),
            std::string::npos)
      << outputs.status().to_string();
}

TEST(DagExecutor, WarmRunsStreamNoWeightBytes) {
  const nn::Network network = nn::make_tiny_resnet();
  auto weights = nn::initialize_weights(network, 107);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = nn::DataType::kFixed16;
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

  const auto inputs = testing::random_inputs(network, 2, 109);
  ASSERT_TRUE(executor.value().run_batch(inputs).is_ok());
  EXPECT_GT(executor.value().last_run_stats().weight_bytes_streamed, 0U)
      << "cold run must latch the resident weight slices";
  ASSERT_TRUE(executor.value().run_batch(inputs).is_ok());
  EXPECT_EQ(executor.value().last_run_stats().weight_bytes_streamed, 0U)
      << "warm run re-streamed weights despite residency";
}

// --- a fork whose blob exceeds the edge depth cap -------------------------

/// data -> pool -> {conv1x1, add port 1}; conv1x1 -> add port 0. The pool's
/// 4x256x256 output is one element past what an edge parks under
/// kMaxPipelineEdgeDepth, so its edge to the add fills while the add still
/// waits on the conv. The fork only drains if the pool writes each frame
/// whole to the conv's edge (plan edge order) before the add's edge; a
/// producer that fed its edges channel by channel wedges here.
nn::Network make_capped_fork() {
  nn::Network net("capped-fork");
  nn::LayerSpec input;
  input.name = "data";
  input.kind = nn::LayerKind::kInput;
  input.input_channels = 4;
  input.input_height = 257;
  input.input_width = 257;
  net.add(input);
  nn::LayerSpec pool;
  pool.name = "pool";
  pool.kind = nn::LayerKind::kPooling;
  pool.pool_method = nn::PoolMethod::kAverage;
  pool.kernel_h = pool.kernel_w = 2;
  pool.stride = 1;
  net.add(pool);
  nn::LayerSpec conv;
  conv.name = "conv";
  conv.kind = nn::LayerKind::kConvolution;
  conv.num_output = 4;
  conv.kernel_h = conv.kernel_w = 1;
  conv.activation = nn::Activation::kReLU;
  net.add(conv);
  nn::LayerSpec add;
  add.name = "add";
  add.kind = nn::LayerKind::kEltwiseAdd;
  add.inputs = {"conv", "pool"};
  net.add(add);
  return net;
}

TEST(DagExecutor, ForkPastTheEdgeDepthCapFloat32) {
  const nn::Network network = make_capped_fork();
  auto shapes = network.infer_shapes();
  ASSERT_TRUE(shapes.is_ok()) << shapes.status().to_string();
  ASSERT_GT(shapes.value()[1].output.element_count() + 1,
            dataflow::kMaxPipelineEdgeDepth);
  expect_dag_bit_exact(network, nn::DataType::kFloat32, 1, 2, 131);
}

TEST(DagExecutor, ForkPastTheEdgeDepthCapFixed8) {
  expect_dag_bit_exact(make_capped_fork(), nn::DataType::kFixed8, 1, 2, 137);
}

TEST(DagExecutor, MultiImagePipeliningThroughResidualBlock) {
  const nn::Network network = nn::make_tiny_resnet();
  auto weights = nn::initialize_weights(network, 113);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  auto plan = hw::plan_accelerator(hw::with_default_annotations(network));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

  const auto inputs = testing::random_inputs(network, 4, 127);
  ASSERT_TRUE(executor.value().run_batch(inputs).is_ok());
  // The skip edge is deep enough to park whole images, so the DAG must not
  // serialize the batch to one image in flight.
  EXPECT_GT(executor.value().last_run_stats().images_in_flight_hwm, 1U)
      << "residual diamond serialized the pipeline";
}

}  // namespace
}  // namespace condor
