// Unit tests for the NN IR: layer descriptors, shape inference, validation,
// FLOP accounting, and the model zoo topologies.
#include <gtest/gtest.h>

#include "nn/models.hpp"
#include "nn/network.hpp"
#include "test_util.hpp"

namespace condor::nn {
namespace {

TEST(Layer, WindowOutputExtent) {
  // Paper eq. (2): 32 - 5 + 1 = 28.
  EXPECT_EQ(window_output_extent(32, 5, 1, 0).value(), 28u);
  // Paper eq. (3): floor((28 - 2) / 2) + 1 = 14.
  EXPECT_EQ(window_output_extent(28, 2, 2, 0).value(), 14u);
  // Padding: (32 + 2*1 - 3)/1 + 1 = 32 (SAME-style).
  EXPECT_EQ(window_output_extent(32, 3, 1, 1).value(), 32u);
  // Odd leftover columns are dropped (floor semantics).
  EXPECT_EQ(window_output_extent(7, 2, 2, 0).value(), 3u);
  // Errors.
  EXPECT_FALSE(window_output_extent(4, 5, 1, 0).is_ok());
  EXPECT_FALSE(window_output_extent(4, 0, 1, 0).is_ok());
  EXPECT_FALSE(window_output_extent(4, 2, 0, 0).is_ok());
  // Window fits thanks to padding.
  EXPECT_TRUE(window_output_extent(4, 5, 1, 1).is_ok());
}

TEST(Layer, ParseRoundTrips) {
  for (const LayerKind kind :
       {LayerKind::kInput, LayerKind::kConvolution, LayerKind::kPooling,
        LayerKind::kInnerProduct, LayerKind::kActivation, LayerKind::kSoftmax}) {
    EXPECT_EQ(parse_layer_kind(to_string(kind)).value(), kind);
  }
  for (const Activation act : {Activation::kNone, Activation::kReLU,
                               Activation::kSigmoid, Activation::kTanH}) {
    EXPECT_EQ(parse_activation(to_string(act)).value(), act);
  }
  EXPECT_EQ(parse_pool_method("MAX").value(), PoolMethod::kMax);
  EXPECT_EQ(parse_pool_method("AVE").value(), PoolMethod::kAverage);
  EXPECT_FALSE(parse_layer_kind("bogus").is_ok());
  EXPECT_FALSE(parse_activation("bogus").is_ok());
  EXPECT_FALSE(parse_pool_method("bogus").is_ok());
}

TEST(Layer, Activations) {
  EXPECT_EQ(apply_activation(Activation::kReLU, -2.0F), 0.0F);
  EXPECT_EQ(apply_activation(Activation::kReLU, 3.0F), 3.0F);
  EXPECT_NEAR(apply_activation(Activation::kSigmoid, 0.0F), 0.5F, 1e-6F);
  EXPECT_NEAR(apply_activation(Activation::kTanH, 0.0F), 0.0F, 1e-6F);
  EXPECT_EQ(apply_activation(Activation::kNone, -7.5F), -7.5F);
}

TEST(Network, LeNetShapes) {
  const Network lenet = make_lenet();
  ASSERT_TRUE(lenet.validate().is_ok());
  auto shapes = lenet.infer_shapes();
  ASSERT_TRUE(shapes.is_ok());
  // data, conv1, pool1, conv2, pool2, ip1, ip2, prob
  ASSERT_EQ(shapes.value().size(), 8u);
  EXPECT_EQ(shapes.value()[0].output, (Shape{1, 28, 28}));
  EXPECT_EQ(shapes.value()[1].output, (Shape{20, 24, 24}));
  EXPECT_EQ(shapes.value()[2].output, (Shape{20, 12, 12}));
  EXPECT_EQ(shapes.value()[3].output, (Shape{50, 8, 8}));
  EXPECT_EQ(shapes.value()[4].output, (Shape{50, 4, 4}));
  EXPECT_EQ(shapes.value()[5].output, (Shape{500}));
  EXPECT_EQ(shapes.value()[6].output, (Shape{10}));
  EXPECT_EQ(shapes.value()[7].output, (Shape{10}));
}

TEST(Network, LeNetParameterCount) {
  // conv1: 20*1*25+20 = 520; conv2: 50*20*25+50 = 25050;
  // ip1: 500*800+500 = 400500; ip2: 10*500+10 = 5010. Total 431080.
  EXPECT_EQ(make_lenet().parameter_count().value(), 431080u);
}

TEST(Network, Tc1IsUspsScale) {
  const Network tc1 = make_tc1();
  ASSERT_TRUE(tc1.validate().is_ok());
  EXPECT_EQ(tc1.input_shape().value(), (Shape{1, 16, 16}));
  EXPECT_EQ(tc1.output_shape().value(), (Shape{10}));
  EXPECT_LT(tc1.parameter_count().value(), 5000u);  // tiny network
}

TEST(Network, Vgg16Shapes) {
  const Network vgg = make_vgg16();
  ASSERT_TRUE(vgg.validate().is_ok());
  auto shapes = vgg.infer_shapes();
  ASSERT_TRUE(shapes.is_ok());
  // 1 input + 13 conv + 5 pool + 3 fc + softmax = 23 layers.
  EXPECT_EQ(vgg.layer_count(), 23u);
  EXPECT_EQ(shapes.value().back().output, (Shape{1000}));
  // After the five pools: 512 x 7 x 7.
  const LayerShapes& fc6 = shapes.value()[vgg.classifier_begin()];
  EXPECT_EQ(fc6.input, (Shape{512, 7, 7}));
  // ~138M parameters.
  EXPECT_NEAR(static_cast<double>(vgg.parameter_count().value()), 138.3e6, 1e6);
}

TEST(Network, FlopsMatchHandCounts) {
  const Network lenet = make_lenet();
  auto shapes = lenet.infer_shapes().value();
  // conv1: 24*24*20 outputs * 25 MACs * 2 + bias adds (11520).
  const std::uint64_t conv1 =
      layer_flops(lenet.layers()[1], shapes[1].input, shapes[1].output);
  EXPECT_EQ(conv1, 2ull * 25 * 20 * 24 * 24 + 20ull * 24 * 24);
  // pool1: 20*12*12 outputs * 4 window ops.
  const std::uint64_t pool1 =
      layer_flops(lenet.layers()[2], shapes[2].input, shapes[2].output);
  EXPECT_EQ(pool1, 20ull * 12 * 12 * 4);
  // ip2: 2*500*10 + 10.
  const std::uint64_t ip2 =
      layer_flops(lenet.layers()[6], shapes[6].input, shapes[6].output);
  EXPECT_EQ(ip2, 2ull * 500 * 10 + 10);
  // Feature extraction strictly smaller than total.
  EXPECT_LT(lenet.feature_extraction_flops().value(),
            lenet.total_flops().value());
}

TEST(Network, FeatureExtractionPrefix) {
  const Network lenet = make_lenet();
  const Network prefix = lenet.feature_extraction_prefix();
  EXPECT_EQ(prefix.layer_count(), 5u);  // data, conv1, pool1, conv2, pool2
  EXPECT_TRUE(prefix.validate().is_ok());
  EXPECT_EQ(prefix.output_shape().value(), (Shape{50, 4, 4}));
  EXPECT_EQ(prefix.feature_extraction_flops().value(),
            lenet.feature_extraction_flops().value());
}

TEST(Network, ValidateRejectsStructuralErrors) {
  using condor::testing::TinyNetConfig;
  // No input layer first.
  {
    Network net("bad");
    LayerSpec conv;
    conv.name = "c";
    conv.kind = LayerKind::kConvolution;
    conv.num_output = 1;
    conv.kernel_h = conv.kernel_w = 1;
    net.add(conv);
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Duplicate names.
  {
    Network net = condor::testing::make_tiny_net(TinyNetConfig{});
    LayerSpec dup = net.layers()[1];
    EXPECT_FALSE([&] {
      Network copy = net;
      copy.add(dup);
      return copy.validate();
    }()
                     .is_ok());
  }
  // Convolution after inner product.
  {
    TinyNetConfig config;
    config.with_fc = true;
    Network net = condor::testing::make_tiny_net(config);
    LayerSpec conv;
    conv.name = "late_conv";
    conv.kind = LayerKind::kConvolution;
    conv.num_output = 1;
    conv.kernel_h = conv.kernel_w = 1;
    net.add(conv);
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Softmax not last.
  {
    TinyNetConfig config;
    config.with_softmax = true;
    Network net = condor::testing::make_tiny_net(config);
    LayerSpec fc;
    fc.name = "after_softmax";
    fc.kind = LayerKind::kInnerProduct;
    fc.num_output = 2;
    net.add(fc);
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Empty network.
  EXPECT_FALSE(Network("empty").validate().is_ok());
}

TEST(Network, InferRejectsWindowLargerThanMap) {
  testing::TinyNetConfig config;
  config.in_size = 4;
  config.kernel = 6;
  const Network net = testing::make_tiny_net(config);
  EXPECT_FALSE(net.infer_shapes().is_ok());
}

TEST(Network, AnalyzeAgreesWithItsViewsOnInvalidNetworks) {
  using condor::testing::TinyNetConfig;
  const auto layer = [](std::string name, LayerKind kind,
                        std::vector<std::string> inputs = {}) {
    LayerSpec spec;
    spec.name = std::move(name);
    spec.kind = kind;
    spec.inputs = std::move(inputs);
    spec.num_output = 2;
    spec.kernel_h = spec.kernel_w = spec.stride = 1;
    return spec;
  };
  struct Case {
    const char* what;
    Network net;
    bool structural;  ///< validate() rejects it (else only shapes do)
    StatusCode code;
  };
  std::vector<Case> cases;
  const auto add_case = [&](const char* what, Network net, bool structural,
                            StatusCode code) {
    cases.push_back({what, std::move(net), structural, code});
  };
  add_case("empty", Network("empty"), true, StatusCode::kInvalidInput);
  {
    Network net("no-input");
    net.add(layer("c", LayerKind::kConvolution));
    add_case("no input first", std::move(net), true, StatusCode::kInvalidInput);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(net.layers()[1]);
    add_case("duplicate name", std::move(net), true, StatusCode::kInvalidInput);
  }
  {
    TinyNetConfig config;
    config.with_fc = true;
    Network net = testing::make_tiny_net(config);
    net.add(layer("late_conv", LayerKind::kConvolution));
    add_case("conv after fc", std::move(net), true, StatusCode::kInvalidInput);
  }
  {
    TinyNetConfig config;
    config.with_softmax = true;
    Network net = testing::make_tiny_net(config);
    net.add(layer("after_softmax", LayerKind::kInnerProduct));
    add_case("softmax not last", std::move(net), true,
             StatusCode::kInvalidInput);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("c2", LayerKind::kConvolution, {"nowhere"}));
    add_case("unknown producer", std::move(net), true, StatusCode::kNotFound);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("c2", LayerKind::kConvolution, {"c2"}));
    add_case("self reference", std::move(net), true,
             StatusCode::kInvalidInput);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("a", LayerKind::kConvolution, {"b"}));
    net.add(layer("b", LayerKind::kConvolution, {"a"}));
    add_case("cycle", std::move(net), true, StatusCode::kInvalidInput);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("sum", LayerKind::kEltwiseAdd, {"conv1"}));
    add_case("one-input join", std::move(net), true,
             StatusCode::kInvalidInput);
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("branch", LayerKind::kConvolution, {"data"}));
    add_case("two sinks", std::move(net), true, StatusCode::kInvalidInput);
  }
  {
    TinyNetConfig config;
    config.in_size = 4;
    config.kernel = 6;
    add_case("window larger than map", testing::make_tiny_net(config), false,
             StatusCode::kInvalidInput);
  }
  {
    // conv1 makes 3 maps, the 1x1 branch 2: the join's shapes disagree.
    Network net = testing::make_tiny_net(TinyNetConfig{});
    net.add(layer("branch", LayerKind::kConvolution, {"conv1"}));
    net.add(layer("sum", LayerKind::kEltwiseAdd, {"conv1", "branch"}));
    add_case("join shapes disagree", std::move(net), false,
             StatusCode::kInvalidInput);
  }
  {
    // 2^22 x 2^22 x 2^22 elements: the product wraps size_t to 0.
    TinyNetConfig config;
    config.in_channels = std::size_t{1} << 22;
    config.in_size = std::size_t{1} << 22;
    add_case("input count wraps", testing::make_tiny_net(config), false,
             StatusCode::kInvalidInput);
  }
  {
    // Upsampling by 2^62 wraps each spatial extent to 0.
    Network net = testing::make_tiny_net(TinyNetConfig{});
    LayerSpec up = layer("up", LayerKind::kUpsample, {"conv1"});
    up.stride = std::size_t{1} << 62;
    net.add(up);
    add_case("upsample extent wraps", std::move(net), false,
             StatusCode::kInvalidInput);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    testing::expect_topology_agrees(c.net);
    const auto analyzed = c.net.analyze();
    ASSERT_FALSE(analyzed.is_ok());
    EXPECT_EQ(analyzed.status().code(), c.code);
    EXPECT_EQ(c.net.validate().is_ok(), !c.structural);
  }
  for (const Network& valid : {make_lenet(), make_tc1(), make_tiny_resnet()}) {
    testing::expect_topology_agrees(valid);
  }
}

TEST(Network, AnalyzeRejectsSizesThatWrapSizeT) {
  using condor::testing::TinyNetConfig;
  // Each case names the layer whose blob or weight count would wrap.
  {
    TinyNetConfig config;
    config.in_channels = std::size_t{1} << 22;
    config.in_size = std::size_t{1} << 22;
    const auto analyzed = testing::make_tiny_net(config).analyze();
    ASSERT_FALSE(analyzed.is_ok());
    EXPECT_EQ(analyzed.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(analyzed.status().message().find("'data'"), std::string::npos)
        << analyzed.status().to_string();
  }
  {
    Network net = testing::make_tiny_net(TinyNetConfig{});
    LayerSpec up;
    up.name = "up";
    up.kind = LayerKind::kUpsample;
    up.inputs = {"conv1"};
    up.stride = std::size_t{1} << 62;
    net.add(up);
    const auto analyzed = net.analyze();
    ASSERT_FALSE(analyzed.is_ok());
    EXPECT_EQ(analyzed.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(analyzed.status().message().find("'up'"), std::string::npos)
        << analyzed.status().to_string();
  }
  {
    // A 2^44-neuron inner product over a 2^20-element input: the output
    // fits, the 2^64-entry weight matrix does not.
    TinyNetConfig config;
    config.in_size = std::size_t{1} << 10;
    config.conv_outputs = 1;
    config.kernel = 1;
    Network net = testing::make_tiny_net(config);
    LayerSpec fc;
    fc.name = "fc";
    fc.kind = LayerKind::kInnerProduct;
    fc.inputs = {"conv1"};
    fc.num_output = std::size_t{1} << 44;
    net.add(fc);
    const auto analyzed = net.analyze();
    ASSERT_FALSE(analyzed.is_ok());
    EXPECT_EQ(analyzed.status().code(), StatusCode::kInvalidInput);
    EXPECT_NE(analyzed.status().message().find("'fc'"), std::string::npos)
        << analyzed.status().to_string();
  }
  for (const Network& valid : {make_lenet(), make_tc1(), make_tiny_resnet()}) {
    EXPECT_TRUE(valid.analyze().is_ok()) << valid.name();
  }
}

TEST(Network, SummaryMentionsEveryLayer) {
  const Network lenet = make_lenet();
  const std::string summary = lenet.summary();
  for (const LayerSpec& layer : lenet.layers()) {
    EXPECT_NE(summary.find(layer.name), std::string::npos) << layer.name;
  }
}

TEST(Network, ParameterShapes) {
  const Network lenet = make_lenet();
  auto shapes = lenet.infer_shapes().value();
  auto conv1 = parameter_shapes(lenet.layers()[1], shapes[1].input);
  ASSERT_TRUE(conv1.is_ok());
  EXPECT_EQ(conv1.value().weights, (Shape{20, 1, 5, 5}));
  EXPECT_EQ(conv1.value().bias, (Shape{20}));
  auto ip1 = parameter_shapes(lenet.layers()[5], shapes[5].input);
  ASSERT_TRUE(ip1.is_ok());
  EXPECT_EQ(ip1.value().weights, (Shape{500, 800}));
  // Pooling has no parameters.
  EXPECT_FALSE(parameter_shapes(lenet.layers()[2], shapes[2].input).is_ok());
}

TEST(ModelZoo, LookupByName) {
  EXPECT_EQ(make_model("tc1").value().name(), "tc1");
  EXPECT_EQ(make_model("LeNet").value().name(), "lenet");
  EXPECT_EQ(make_model("VGG-16").value().name(), "vgg16");
  EXPECT_FALSE(make_model("alexnet").is_ok());
}

}  // namespace
}  // namespace condor::nn
