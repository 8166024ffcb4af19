// Randomized property suite: generate random valid CNN topologies and
// check system-wide invariants on each —
//
//   * the dataflow engine matches the golden reference bit-for-bit,
//   * Caffe export -> import round-trips the topology and weights,
//   * the Condor JSON representation round-trips hardware annotations,
//   * planner invariants hold (filter counts, FIFO totals, edge chain),
//   * FIFO occupancy never exceeds the planned capacity during execution.
//
// Seeds are fixed, so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <array>

#include "caffe/export.hpp"
#include "caffe/import.hpp"
#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"
#include "onnx/export.hpp"
#include "onnx/import.hpp"
#include "test_util.hpp"

namespace condor {
namespace {

/// Builds a random valid sequential CNN: 1-3 feature stages (conv with
/// random window/stride/pad/activation, optional pool), optionally a small
/// classifier head and softmax.
nn::Network random_network(Rng& rng) {
  nn::Network net("rand" + std::to_string(rng.bounded(1000000)));
  std::size_t channels = 1 + rng.bounded(3);
  std::size_t size = 10 + rng.bounded(12);  // 10..21

  nn::LayerSpec input;
  input.name = "data";
  input.kind = nn::LayerKind::kInput;
  input.input_channels = channels;
  input.input_height = size;
  input.input_width = size;
  net.add(input);

  const std::size_t stages = 1 + rng.bounded(3);
  for (std::size_t s = 0; s < stages; ++s) {
    nn::LayerSpec conv;
    conv.kind = nn::LayerKind::kConvolution;
    conv.name = "conv" + std::to_string(s);
    conv.num_output = 1 + rng.bounded(4);
    conv.kernel_h = conv.kernel_w = 1 + rng.bounded(4);  // 1..4
    conv.stride = 1 + rng.bounded(2);
    conv.pad = rng.bounded(2);
    conv.has_bias = rng.bounded(2) == 0;
    conv.activation = static_cast<nn::Activation>(rng.bounded(4));
    // Keep geometry valid.
    const std::size_t padded = size + 2 * conv.pad;
    if (padded < conv.kernel_h) {
      conv.kernel_h = conv.kernel_w = padded;
    }
    net.add(conv);
    size = (size + 2 * conv.pad - conv.kernel_h) / conv.stride + 1;
    channels = conv.num_output;

    if (size >= 2 && rng.bounded(2) == 0) {
      nn::LayerSpec pool;
      pool.kind = nn::LayerKind::kPooling;
      pool.name = "pool" + std::to_string(s);
      pool.kernel_h = pool.kernel_w = 2;
      pool.stride = 2;
      pool.pool_method =
          rng.bounded(2) == 0 ? nn::PoolMethod::kMax : nn::PoolMethod::kAverage;
      net.add(pool);
      size = (size - 2) / 2 + 1;
    }
    if (size < 4) {
      break;  // maps too small for another stage
    }
  }

  if (rng.bounded(2) == 0) {
    nn::LayerSpec fc;
    fc.kind = nn::LayerKind::kInnerProduct;
    fc.name = "fc0";
    fc.num_output = 2 + rng.bounded(8);
    fc.has_bias = rng.bounded(2) == 0;
    fc.activation = rng.bounded(2) == 0 ? nn::Activation::kReLU
                                        : nn::Activation::kNone;
    net.add(fc);
    if (rng.bounded(2) == 0) {
      nn::LayerSpec softmax;
      softmax.kind = nn::LayerKind::kSoftmax;
      softmax.name = "prob";
      net.add(softmax);
    }
  }
  return net;
}

/// Random hardware annotations: occasional parallelism and fusion.
hw::HwNetwork random_annotations(const nn::Network& net, Rng& rng) {
  hw::HwNetwork hw_net = hw::with_default_annotations(net);
  auto shapes = net.infer_shapes().value();
  int group = -1;
  for (std::size_t i = 1; i < net.layer_count(); ++i) {
    const nn::LayerSpec& layer = net.layers()[i];
    if (layer.is_feature_extraction()) {
      // Occasionally read multiple input maps concurrently (replicated
      // filter chains in hardware; the executor's results must not
      // depend on it).
      if (rng.bounded(3) == 0 && shapes[i].input[0] > 1) {
        hw_net.hw.layers[i].parallel_in = 1 + rng.bounded(shapes[i].input[0]);
      }
      // Occasionally fuse this layer with the previous feature layer.
      if (group >= 0 && rng.bounded(3) == 0 &&
          net.layers()[i - 1].is_feature_extraction()) {
        hw_net.hw.layers[i].pe_group = group;
        hw_net.hw.layers[i - 1].pe_group = group;
      } else {
        ++group;
      }
    }
  }
  return hw_net.validate().is_ok() ? hw_net : hw::with_default_annotations(net);
}

class RandomNetwork : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetwork, DataflowMatchesReferenceBitExact) {
  Rng rng(GetParam());
  const nn::Network net = random_network(rng);
  ASSERT_TRUE(net.validate().is_ok()) << net.summary();

  auto weights = nn::initialize_weights(net, GetParam() * 3 + 1);
  ASSERT_TRUE(weights.is_ok());
  auto engine = nn::ReferenceEngine::create(net, weights.value());
  ASSERT_TRUE(engine.is_ok());

  const hw::HwNetwork hw_net = random_annotations(net, rng);
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string() << "\n" << net.summary();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok());

  const std::size_t batch = 1 + rng.bounded(4);
  const auto inputs = testing::random_inputs(net, batch, GetParam() + 9);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string() << "\n"
                               << net.summary();
  for (std::size_t i = 0; i < batch; ++i) {
    const Tensor expected = engine.value().forward(inputs[i]).value();
    ASSERT_EQ(max_abs_diff(outputs.value()[i], expected), 0.0F)
        << "seed " << GetParam() << " image " << i << "\n"
        << net.summary();
  }

  // FIFO occupancy never exceeded planned capacity (blocking semantics).
  for (const dataflow::FifoStats& stats :
       executor.value().last_run_stats().stream_stats) {
    EXPECT_LE(stats.max_occupancy, stats.capacity);
  }
}

TEST_P(RandomNetwork, CaffeRoundTripPreservesTopologyAndWeights) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  const nn::Network net = random_network(rng);
  auto weights = nn::initialize_weights(net, GetParam() + 2);
  ASSERT_TRUE(weights.is_ok());

  auto prototxt = caffe::to_prototxt(net);
  auto caffemodel = caffe::to_caffemodel(net, weights.value());
  ASSERT_TRUE(prototxt.is_ok());
  ASSERT_TRUE(caffemodel.is_ok());
  auto model = caffe::load_caffe_model(prototxt.value(), caffemodel.value());
  ASSERT_TRUE(model.is_ok()) << model.status().to_string() << "\n"
                             << prototxt.value();

  // Same shapes, layer kinds and activations after the round trip.
  ASSERT_EQ(model.value().network.layer_count(), net.layer_count());
  auto original_shapes = net.infer_shapes().value();
  auto round_shapes = model.value().network.infer_shapes().value();
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_EQ(round_shapes[i].output, original_shapes[i].output) << i;
    EXPECT_EQ(model.value().network.layers()[i].kind, net.layers()[i].kind) << i;
    EXPECT_EQ(model.value().network.layers()[i].activation,
              net.layers()[i].activation)
        << i;
  }
  // Weights bit-exact.
  for (const auto& [name, params] : weights.value().all()) {
    const nn::LayerParameters* other = model.value().weights.find(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(max_abs_diff(params.weights, other->weights), 0.0F) << name;
  }
  // And both produce identical inference results.
  auto engine_a = nn::ReferenceEngine::create(net, weights.value());
  auto engine_b =
      nn::ReferenceEngine::create(model.value().network, model.value().weights);
  ASSERT_TRUE(engine_a.is_ok());
  ASSERT_TRUE(engine_b.is_ok());
  const auto inputs = testing::random_inputs(net, 1, GetParam() + 4);
  EXPECT_EQ(max_abs_diff(engine_a.value().forward(inputs[0]).value(),
                         engine_b.value().forward(inputs[0]).value()),
            0.0F);
}

TEST_P(RandomNetwork, HwIrJsonRoundTripPreservesAnnotations) {
  Rng rng(GetParam() ^ 0xBEEF);
  const nn::Network net = random_network(rng);
  hw::HwNetwork hw_net = random_annotations(net, rng);
  auto shapes = net.infer_shapes().value();
  for (std::size_t i = 1; i < net.layer_count(); ++i) {
    if (net.layers()[i].is_feature_extraction() && rng.bounded(2) == 0) {
      hw_net.hw.layers[i].parallel_out =
          1 + rng.bounded(shapes[i].output[0]);
    }
  }
  if (!hw_net.validate().is_ok()) {
    GTEST_SKIP() << "random annotations invalid for this topology";
  }
  auto restored = hw::from_json_text(hw::to_json_text(hw_net));
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  for (std::size_t i = 0; i < hw_net.hw.layers.size(); ++i) {
    EXPECT_EQ(restored.value().hw.layers[i].parallel_in,
              hw_net.hw.layers[i].parallel_in)
        << i;
    EXPECT_EQ(restored.value().hw.layers[i].parallel_out,
              hw_net.hw.layers[i].parallel_out)
        << i;
    EXPECT_EQ(restored.value().hw.layers[i].pe_group, hw_net.hw.layers[i].pe_group)
        << i;
  }
}

TEST_P(RandomNetwork, PlannerInvariants) {
  Rng rng(GetParam() ^ 0xFACade);
  const nn::Network net = random_network(rng);
  const hw::HwNetwork hw_net = random_annotations(net, rng);
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  // Every non-softmax compute layer is owned by exactly one PE.
  std::set<std::size_t> owned;
  for (const hw::PePlan& pe : plan.value().pes) {
    for (const std::size_t index : pe.layer_indices) {
      EXPECT_TRUE(owned.insert(index).second) << "layer owned twice";
    }
    if (pe.memory.has_value()) {
      // Filter count = window area; FIFO total = live span.
      EXPECT_EQ(pe.memory->filters.size(),
                pe.memory->window_h * pe.memory->window_w);
      EXPECT_EQ(pe.memory->buffered_elements(),
                (pe.memory->window_h - 1) * pe.memory->map_w +
                    pe.memory->window_w - 1);
    }
  }
  std::size_t expected_owned = 0;
  for (std::size_t i = 1; i < net.layer_count(); ++i) {
    expected_owned += net.layers()[i].kind != nn::LayerKind::kSoftmax ? 1 : 0;
  }
  EXPECT_EQ(owned.size(), expected_owned);

  // The edge list forms the datamover -> PEs -> datamover chain.
  ASSERT_EQ(plan.value().edges.size(), plan.value().pes.size() + 1);
  EXPECT_EQ(plan.value().edges.front().from_pe, hw::StreamEdge::kDatamover);
  for (std::size_t e = 1; e < plan.value().edges.size(); ++e) {
    EXPECT_EQ(plan.value().edges[e].from_pe, e - 1);
  }
  EXPECT_EQ(plan.value().edges.back().to_pe, hw::StreamEdge::kDatamover);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetwork,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Random DAG topologies (ISSUE 8): residual/route/upsample graphs, checked
// golden-vs-executor bit-exact across all three datapaths and round-tripped
// through both frontend formats.
// ---------------------------------------------------------------------------

/// Builds a random valid DAG: a trunk conv (when `with_trunk`), then 1-2 join
/// rounds (eltwise residual with a 1x1/identity skip, or a two-branch
/// channel concat), optionally an upsample, then an optional
/// pool/classifier tail. All branch geometry is size-preserving (3x3 pad 1 /
/// 1x1) so join shapes always agree. Without the trunk, round 0 reads
/// "data" directly: the input datamover feeds two edges and a join may read
/// the input edge.
nn::Network random_dag_network(Rng& rng, bool with_trunk) {
  nn::Network net("dagrand" + std::to_string(rng.bounded(1000000)));
  std::size_t channels = 1 + rng.bounded(3);
  std::size_t size = 8 + rng.bounded(8);  // 8..15

  nn::LayerSpec input;
  input.name = "data";
  input.kind = nn::LayerKind::kInput;
  input.input_channels = channels;
  input.input_height = size;
  input.input_width = size;
  net.add(input);

  const auto random_activation = [&rng]() {
    return static_cast<nn::Activation>(rng.bounded(5));
  };
  const auto add_conv = [&](const std::string& name, std::size_t outputs,
                            std::size_t kernel, std::size_t pad,
                            const std::string& bottom) {
    nn::LayerSpec conv;
    conv.kind = nn::LayerKind::kConvolution;
    conv.name = name;
    conv.num_output = outputs;
    conv.kernel_h = conv.kernel_w = kernel;
    conv.stride = 1;
    conv.pad = pad;
    conv.has_bias = rng.bounded(2) == 0;
    conv.activation = random_activation();
    conv.inputs = {bottom};
    net.add(std::move(conv));
  };

  std::string trunk = "data";
  if (with_trunk) {
    add_conv("trunk", 1 + rng.bounded(4), 3, 1, "data");
    trunk = "trunk";
    channels = net.layers().back().num_output;
  }

  const std::size_t rounds = 1 + rng.bounded(2);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::string tag = std::to_string(r);
    nn::LayerSpec join;
    if (rng.bounded(2) == 0) {
      // Residual: branch_a (3x3) + either an identity skip from the trunk
      // or a 1x1 projection branch.
      const bool identity_skip = rng.bounded(2) == 0;
      const std::size_t ca = identity_skip ? channels : 1 + rng.bounded(4);
      add_conv("res" + tag + "_a", ca, 3, 1, trunk);
      std::string second = trunk;
      if (!identity_skip) {
        add_conv("res" + tag + "_b", ca, 1, 0, trunk);
        second = "res" + tag + "_b";
      }
      join.kind = nn::LayerKind::kEltwiseAdd;
      join.name = "add" + tag;
      join.inputs = {"res" + tag + "_a", second};
      channels = ca;
    } else {
      // Route: two branches concatenated along channels.
      const std::size_t ca = 1 + rng.bounded(3);
      const std::size_t cb = 1 + rng.bounded(3);
      add_conv("cat" + tag + "_a", ca, 3, 1, trunk);
      add_conv("cat" + tag + "_b", cb, 1, 0, trunk);
      join.kind = nn::LayerKind::kConcat;
      join.name = "cat" + tag;
      join.inputs = {"cat" + tag + "_a", "cat" + tag + "_b"};
      channels = ca + cb;
    }
    join.activation = random_activation();
    net.add(std::move(join));
    trunk = net.layers().back().name;

    if (size <= 12 && rng.bounded(3) == 0) {
      nn::LayerSpec up;
      up.kind = nn::LayerKind::kUpsample;
      up.name = "up" + tag;
      up.stride = 2;
      up.activation = rng.bounded(2) == 0 ? nn::Activation::kNone
                                          : nn::Activation::kReLU;
      net.add(std::move(up));
      trunk = net.layers().back().name;
      size *= 2;
    }
  }

  if (rng.bounded(2) == 0) {
    nn::LayerSpec pool;
    pool.kind = nn::LayerKind::kPooling;
    pool.name = "pool";
    pool.kernel_h = pool.kernel_w = 2;
    pool.stride = 2;
    pool.pool_method =
        rng.bounded(2) == 0 ? nn::PoolMethod::kMax : nn::PoolMethod::kAverage;
    net.add(pool);
  }
  if (rng.bounded(2) == 0) {
    nn::LayerSpec fc;
    fc.kind = nn::LayerKind::kInnerProduct;
    fc.name = "fc";
    fc.num_output = 2 + rng.bounded(6);
    fc.has_bias = rng.bounded(2) == 0;
    net.add(fc);
    if (rng.bounded(2) == 0) {
      nn::LayerSpec softmax;
      softmax.kind = nn::LayerKind::kSoftmax;
      softmax.name = "prob";
      net.add(softmax);
    }
  }
  return net;
}

class RandomDagNetwork : public ::testing::TestWithParam<std::uint64_t> {};

/// Seeds 1..kTrunkSeeds draw DAGs behind a trunk conv; the seeds after them
/// draw DAGs without one, so the network input fans out.
constexpr std::uint64_t kTrunkSeeds = 24;

TEST_P(RandomDagNetwork, DataflowMatchesReferenceBitExactAllDatapaths) {
  Rng rng(GetParam() ^ 0xDA6DA6);
  const nn::Network net = random_dag_network(rng, GetParam() <= kTrunkSeeds);
  ASSERT_TRUE(net.validate().is_ok()) << net.validate().to_string();

  auto weights = nn::initialize_weights(net, GetParam() * 5 + 1);
  ASSERT_TRUE(weights.is_ok());

  // The datapath cycles with the seed: the reference oracle is the
  // QuantizedEngine, which delegates to the golden float reference for
  // float32 and runs the identical integer arithmetic otherwise.
  const nn::DataType data_type =
      std::array{nn::DataType::kFloat32, nn::DataType::kFixed16,
                 nn::DataType::kFixed8}[GetParam() % 3];
  auto engine = nn::QuantizedEngine::create(net, weights.value(), data_type);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

  hw::HwNetwork hw_net = random_annotations(net, rng);
  hw_net.hw.data_type = data_type;
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string() << "\n" << net.summary();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

  const std::size_t batch = 1 + rng.bounded(3);
  const auto inputs = testing::random_inputs(net, batch, GetParam() + 17);
  auto outputs = executor.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string() << "\n"
                               << net.summary();
  for (std::size_t i = 0; i < batch; ++i) {
    const Tensor expected = engine.value().forward(inputs[i]).value();
    ASSERT_EQ(max_abs_diff(outputs.value()[i], expected), 0.0F)
        << "seed " << GetParam() << " image " << i << " ("
        << nn::to_string(data_type) << ")\n"
        << net.summary();
  }
  for (const dataflow::FifoStats& stats :
       executor.value().last_run_stats().stream_stats) {
    EXPECT_LE(stats.max_occupancy, stats.capacity);
  }
}

TEST_P(RandomDagNetwork, AnalyzeAgreesWithItsViews) {
  Rng rng(GetParam() ^ 0x7090);
  const nn::Network net = random_dag_network(rng, GetParam() <= kTrunkSeeds);
  ASSERT_TRUE(net.analyze().is_ok()) << net.analyze().status().to_string();
  testing::expect_topology_agrees(net);

  // Broken variants of the same DAG: an unknown producer, a cycle through
  // layer 1 (the trunk, or a round-0 branch without one), and a join whose
  // operand shapes disagree (structurally valid).
  const std::size_t join = [&] {
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      if (net.layers()[i].is_join()) {
        return i;
      }
    }
    return net.layer_count();
  }();
  ASSERT_LT(join, net.layer_count());
  nn::Network unknown = net;
  unknown.layers()[join].inputs[1] = "nowhere";
  testing::expect_topology_agrees(unknown);
  EXPECT_EQ(unknown.analyze().status().code(), StatusCode::kNotFound);

  nn::Network cycle = net;
  cycle.layers()[1].inputs = {net.layers()[join].name};
  testing::expect_topology_agrees(cycle);
  EXPECT_FALSE(cycle.validate().is_ok());

  nn::Network mismatch = net;
  const std::string& operand = net.layers()[join].inputs[0];
  for (nn::LayerSpec& layer : mismatch.layers()) {
    if (layer.name == operand) {
      layer.num_output += 1;  // concat would still agree on H x W
      layer.kernel_h = layer.kernel_w = 1;
      layer.pad = 0;
      layer.stride = 2;
    }
  }
  testing::expect_topology_agrees(mismatch);
  EXPECT_TRUE(mismatch.validate().is_ok());
  EXPECT_EQ(mismatch.analyze().status().code(), StatusCode::kInvalidInput);
}

TEST_P(RandomDagNetwork, CaffeRoundTripPreservesDagTopology) {
  Rng rng(GetParam() ^ 0xCAFED);
  const nn::Network net = random_dag_network(rng, GetParam() <= kTrunkSeeds);
  auto weights = nn::initialize_weights(net, GetParam() + 23);
  ASSERT_TRUE(weights.is_ok());

  auto prototxt = caffe::to_prototxt(net);
  auto caffemodel = caffe::to_caffemodel(net, weights.value());
  ASSERT_TRUE(prototxt.is_ok()) << prototxt.status().to_string();
  ASSERT_TRUE(caffemodel.is_ok());
  auto model = caffe::load_caffe_model(prototxt.value(), caffemodel.value());
  ASSERT_TRUE(model.is_ok()) << model.status().to_string() << "\n"
                             << prototxt.value();

  ASSERT_EQ(model.value().network.layer_count(), net.layer_count());
  EXPECT_EQ(model.value().network.join_count(), net.join_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_EQ(model.value().network.layers()[i].kind, net.layers()[i].kind) << i;
    EXPECT_EQ(model.value().network.layers()[i].activation,
              net.layers()[i].activation)
        << i;
  }
  auto engine_a = nn::ReferenceEngine::create(net, weights.value());
  auto engine_b =
      nn::ReferenceEngine::create(model.value().network, model.value().weights);
  ASSERT_TRUE(engine_a.is_ok());
  ASSERT_TRUE(engine_b.is_ok());
  const auto inputs = testing::random_inputs(net, 1, GetParam() + 29);
  EXPECT_EQ(max_abs_diff(engine_a.value().forward(inputs[0]).value(),
                         engine_b.value().forward(inputs[0]).value()),
            0.0F);
}

TEST_P(RandomDagNetwork, OnnxRoundTripPreservesDagTopology) {
  Rng rng(GetParam() ^ 0x00DD);
  const nn::Network net = random_dag_network(rng, GetParam() <= kTrunkSeeds);
  auto weights = nn::initialize_weights(net, GetParam() + 31);
  ASSERT_TRUE(weights.is_ok());

  auto bytes = onnx::to_onnx(net, weights.value());
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  auto model = onnx::load_onnx_model(bytes.value());
  ASSERT_TRUE(model.is_ok()) << model.status().to_string() << "\n"
                             << net.summary();

  EXPECT_EQ(model.value().network.join_count(), net.join_count());
  EXPECT_EQ(model.value().network.dag_depth().value(),
            net.dag_depth().value());
  auto engine_a = nn::ReferenceEngine::create(net, weights.value());
  auto engine_b =
      nn::ReferenceEngine::create(model.value().network, model.value().weights);
  ASSERT_TRUE(engine_a.is_ok());
  ASSERT_TRUE(engine_b.is_ok()) << engine_b.status().to_string();
  const auto inputs = testing::random_inputs(net, 1, GetParam() + 37);
  EXPECT_EQ(max_abs_diff(engine_a.value().forward(inputs[0]).value(),
                         engine_b.value().forward(inputs[0]).value()),
            0.0F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagNetwork,
                         ::testing::Range<std::uint64_t>(1, 37));

}  // namespace
}  // namespace condor
