// Shared helpers for the Condor test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "nn/network.hpp"
#include "nn/weights.hpp"
#include "tensor/tensor.hpp"

namespace condor::testing {

/// Uniform random tensor in [-1, 1).
inline Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (float& value : t.data()) {
    value = rng.uniform(-1.0F, 1.0F);
  }
  return t;
}

/// A batch of random inputs for `network`.
inline std::vector<Tensor> random_inputs(const nn::Network& network,
                                         std::size_t batch, std::uint64_t seed) {
  Rng rng(seed);
  const Shape shape = network.input_shape().value();
  std::vector<Tensor> inputs;
  inputs.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    inputs.push_back(random_tensor(shape, rng));
  }
  return inputs;
}

/// Small single-path CNN with configurable geometry, used by the
/// parameterized dataflow-vs-reference property suites.
struct TinyNetConfig {
  std::size_t in_channels = 1;
  std::size_t in_size = 8;
  std::size_t conv_outputs = 3;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 0;
  nn::Activation activation = nn::Activation::kNone;
  bool with_pool = false;
  nn::PoolMethod pool_method = nn::PoolMethod::kMax;
  bool with_fc = false;
  std::size_t fc_outputs = 4;
  bool with_softmax = false;
};

inline nn::Network make_tiny_net(const TinyNetConfig& config) {
  nn::Network net("tiny");
  nn::LayerSpec input;
  input.name = "data";
  input.kind = nn::LayerKind::kInput;
  input.input_channels = config.in_channels;
  input.input_height = config.in_size;
  input.input_width = config.in_size;
  net.add(input);

  nn::LayerSpec conv;
  conv.name = "conv1";
  conv.kind = nn::LayerKind::kConvolution;
  conv.num_output = config.conv_outputs;
  conv.kernel_h = conv.kernel_w = config.kernel;
  conv.stride = config.stride;
  conv.pad = config.pad;
  conv.activation = config.activation;
  net.add(conv);

  if (config.with_pool) {
    nn::LayerSpec pool;
    pool.name = "pool1";
    pool.kind = nn::LayerKind::kPooling;
    pool.kernel_h = pool.kernel_w = 2;
    pool.stride = 2;
    pool.pool_method = config.pool_method;
    net.add(pool);
  }
  if (config.with_fc) {
    nn::LayerSpec fc;
    fc.name = "ip1";
    fc.kind = nn::LayerKind::kInnerProduct;
    fc.num_output = config.fc_outputs;
    net.add(fc);
  }
  if (config.with_softmax) {
    nn::LayerSpec softmax;
    softmax.name = "prob";
    softmax.kind = nn::LayerKind::kSoftmax;
    net.add(softmax);
  }
  return net;
}

/// Network::analyze() agrees with every view of it: a structural error is
/// validate()'s, any error is infer_shapes()'s, and a valid network's
/// topology equals topological_order(), consumers(), producers() and the
/// inferred shapes.
inline void expect_topology_agrees(const nn::Network& net) {
  const Result<nn::Topology> analyzed = net.analyze();
  const Result<std::vector<nn::LayerShapes>> shapes = net.infer_shapes();
  const Status structural = net.validate();
  ASSERT_EQ(analyzed.is_ok(), shapes.is_ok());
  if (!analyzed.is_ok()) {
    EXPECT_EQ(shapes.status().to_string(), analyzed.status().to_string());
    if (!structural.is_ok()) {
      EXPECT_EQ(structural.to_string(), analyzed.status().to_string());
    }
    return;
  }
  ASSERT_TRUE(structural.is_ok()) << structural.to_string();
  const nn::Topology& topology = analyzed.value();
  EXPECT_EQ(topology.order, net.topological_order().value());
  EXPECT_EQ(topology.consumers, net.consumers().value());
  ASSERT_EQ(topology.producers.size(), net.layer_count());
  ASSERT_EQ(topology.shapes.size(), net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_EQ(topology.producers[i], net.producers(i).value()) << i;
    EXPECT_EQ(topology.shapes[i].input, shapes.value()[i].input) << i;
    EXPECT_EQ(topology.shapes[i].output, shapes.value()[i].output) << i;
  }
  EXPECT_EQ(topology.input_shape(), net.input_shape().value());
  EXPECT_EQ(topology.output_shape(), net.output_shape().value());
}

}  // namespace condor::testing
