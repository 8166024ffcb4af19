// Tests for the backend runtime: the xclbin container, the kernel runner,
// and the SDAccel-style OpenCL host API end to end.
#include <gtest/gtest.h>

#include <cstring>

#include "condor/flow.hpp"
#include "hls/synthesis.hpp"
#include "nn/models.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"
#include "runtime/opencl_like.hpp"
#include "runtime/xclbin.hpp"
#include "test_util.hpp"

namespace condor::runtime {
namespace {

Xclbin make_test_container() {
  Xclbin bin;
  bin.set_text_section("meta.json", R"({"board": "aws-f1", "kernel": "k"})");
  bin.set_text_section("notes.txt", "hello");
  std::vector<std::byte> blob = {std::byte{1}, std::byte{2}, std::byte{3}};
  bin.set_section("blob.bin", blob);
  return bin;
}

TEST(Xclbin, SerializeDeserializeRoundTrip) {
  const Xclbin original = make_test_container();
  auto restored = Xclbin::deserialize(original.serialize());
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value().sections().size(), 3u);
  EXPECT_EQ(restored.value().text_section("notes.txt").value(), "hello");
  EXPECT_EQ(restored.value().find("blob.bin")->data.size(), 3u);
  EXPECT_EQ(restored.value().find("missing"), nullptr);
}

TEST(Xclbin, SetSectionOverwrites) {
  Xclbin bin = make_test_container();
  bin.set_text_section("notes.txt", "updated");
  EXPECT_EQ(bin.sections().size(), 3u);
  EXPECT_EQ(bin.text_section("notes.txt").value(), "updated");
}

TEST(Xclbin, CorruptedSectionRejected) {
  auto bytes = make_test_container().serialize();
  bytes[bytes.size() - 2] ^= std::byte{0xFF};  // flip a payload byte
  auto restored = Xclbin::deserialize(bytes);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_NE(restored.status().message().find("CRC"), std::string::npos);
}

TEST(Xclbin, GarbageRejected) {
  std::vector<std::byte> garbage(32, std::byte{0x42});
  EXPECT_FALSE(Xclbin::deserialize(garbage).is_ok());
}

TEST(Xclbin, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/test.xclbin";
  ASSERT_TRUE(make_test_container().save(path).is_ok());
  auto loaded = Xclbin::load(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().text_section("notes.txt").value(), "hello");
}

TEST(KernelXml, DescribesAxiInterfaces) {
  const std::string xml = generate_kernel_xml("lenet_top");
  EXPECT_NE(xml.find("kernel name=\"lenet_top\""), std::string::npos);
  EXPECT_NE(xml.find("mode=\"master\""), std::string::npos);   // AXI4 master
  EXPECT_NE(xml.find("S_AXI_CONTROL"), std::string::npos);     // AXI4-Lite slave
  EXPECT_NE(xml.find("gmem_weights"), std::string::npos);
  EXPECT_NE(xml.find("name=\"batch\""), std::string::npos);
}

// ---- Full host-API path -----------------------------------------------------

struct FlowFixture {
  condorflow::FlowResult flow;
  nn::Network network;
  nn::WeightStore weights;
};

FlowFixture run_flow(const nn::Network& model, std::uint64_t seed) {
  FlowFixture fixture;
  fixture.network = model;
  fixture.weights = nn::initialize_weights(model, seed).value();
  condorflow::FrontendInput input;
  input.network_json_text =
      hw::to_json_text(hw::with_default_annotations(model));
  input.weight_file_bytes = fixture.weights.serialize();
  condorflow::FlowOptions options;
  fixture.flow = condorflow::Flow::run(input, options).value();
  return fixture;
}

TEST(OclApi, DeviceEnumeration) {
  const auto devices = ocl::get_devices();
  EXPECT_EQ(devices.size(), hw::board_database().size());
  EXPECT_TRUE(ocl::get_device("aws-f1").is_ok());
  EXPECT_FALSE(ocl::get_device("nope").is_ok());
  EXPECT_NE(ocl::get_device("aws-f1").value().name.find("aws-vu9p-f1"),
            std::string::npos);
}

TEST(OclApi, EndToEndMatchesReference) {
  using condor::testing::TinyNetConfig;
  TinyNetConfig config;
  config.with_pool = true;
  config.with_fc = true;
  config.with_softmax = true;
  const nn::Network model = condor::testing::make_tiny_net(config);
  FlowFixture fixture = run_flow(model, 31);

  auto device = ocl::get_device("aws-f1");
  ASSERT_TRUE(device.is_ok());
  ocl::Context context(device.value());
  auto program =
      ocl::Program::create_with_binary(context, fixture.flow.xclbin_bytes);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  EXPECT_EQ(program.value().kernel_name(), "tiny_top");
  ocl::Kernel kernel(program.value(), program.value().kernel_name());

  const auto inputs = condor::testing::random_inputs(model, 3, 41);
  const std::size_t image_floats = inputs[0].size();
  const std::size_t out_floats = model.output_shape().value().element_count();

  ocl::Buffer in_buffer(context, inputs.size() * image_floats * sizeof(float));
  ocl::Buffer out_buffer(context, inputs.size() * out_floats * sizeof(float));
  ocl::Buffer weight_buffer(context, fixture.flow.weight_file_bytes.size());
  ocl::CommandQueue queue(context);
  ASSERT_TRUE(
      queue.enqueue_write_buffer(weight_buffer, 0, fixture.flow.weight_file_bytes)
          .is_ok());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_TRUE(queue
                    .enqueue_write_buffer(
                        in_buffer, i * image_floats * sizeof(float),
                        std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(inputs[i].raw()),
                            image_floats * sizeof(float)))
                    .is_ok());
  }
  ASSERT_TRUE(kernel.set_arg(0, in_buffer).is_ok());
  ASSERT_TRUE(kernel.set_arg(1, out_buffer).is_ok());
  ASSERT_TRUE(kernel.set_arg(2, weight_buffer).is_ok());
  ASSERT_TRUE(kernel.set_arg(3, static_cast<std::int32_t>(inputs.size())).is_ok());

  auto task = queue.enqueue_task(kernel);
  ASSERT_TRUE(task.is_ok()) << task.status().to_string();
  auto stats = task.value().kernel_stats();  // waits for the task to execute
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GT(stats.value().simulated_cycles, 0u);
  EXPECT_GT(stats.value().clock_mhz, 0.0);

  auto engine = nn::ReferenceEngine::create(model, fixture.weights);
  ASSERT_TRUE(engine.is_ok());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<float> device_out(out_floats);
    auto read = queue.enqueue_read_buffer(
        out_buffer, i * out_floats * sizeof(float),
        std::span<std::byte>(reinterpret_cast<std::byte*>(device_out.data()),
                             out_floats * sizeof(float)));
    ASSERT_TRUE(read.is_ok()) << read.status().to_string();
    read.value().wait();  // zero-copy read: the span fills on completion
    const Tensor expected = engine.value().forward(inputs[i]).value();
    for (std::size_t c = 0; c < out_floats; ++c) {
      EXPECT_EQ(device_out[c], expected[c]) << "image " << i << " class " << c;
    }
  }
}

TEST(OclApi, WrongBoardBinaryRejected) {
  const nn::Network model =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  FlowFixture fixture = run_flow(model, 5);  // targets aws-f1
  auto device = ocl::get_device("zc706");
  ASSERT_TRUE(device.is_ok());
  ocl::Context context(device.value());
  auto program =
      ocl::Program::create_with_binary(context, fixture.flow.xclbin_bytes);
  EXPECT_FALSE(program.is_ok());
}

TEST(OclApi, IncompleteKernelArgsRejected) {
  const nn::Network model =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  FlowFixture fixture = run_flow(model, 6);
  auto device = ocl::get_device("aws-f1");
  ocl::Context context(device.value());
  auto program =
      ocl::Program::create_with_binary(context, fixture.flow.xclbin_bytes);
  ASSERT_TRUE(program.is_ok());
  ocl::Kernel kernel(program.value(), "tiny_top");
  ocl::CommandQueue queue(context);
  auto stats = queue.enqueue_task(kernel);  // no args set
  EXPECT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidInput);
  // Invalid arg indices.
  ocl::Buffer buffer(context, 16);
  EXPECT_FALSE(kernel.set_arg(7, buffer).is_ok());
  EXPECT_FALSE(kernel.set_arg(0, -1).is_ok());
}

TEST(OclApi, BufferBoundsChecked) {
  auto device = ocl::get_device("aws-f1");
  ocl::Context context(device.value());
  ocl::Buffer buffer(context, 8);
  ocl::CommandQueue queue(context);
  std::vector<std::byte> big(16);
  auto oversized = queue.enqueue_write_buffer(buffer, 0, big);
  EXPECT_FALSE(oversized.is_ok());
  EXPECT_NE(oversized.status().message().find("write of 16 bytes at offset 0"),
            std::string::npos)
      << oversized.status().to_string();
  EXPECT_NE(oversized.status().message().find("buffer of 8 bytes"),
            std::string::npos);
  auto past_end = queue.enqueue_write_buffer(buffer, 4, std::span(big).first(8));
  EXPECT_FALSE(past_end.is_ok());
  EXPECT_NE(past_end.status().message().find("write of 8 bytes at offset 4"),
            std::string::npos);
  // Offset alone past the end must not wrap (offset + size could overflow).
  EXPECT_FALSE(
      queue.enqueue_write_buffer(buffer, 9, std::span(big).first(0)).is_ok());
  std::vector<std::byte> out(4);
  EXPECT_TRUE(queue.enqueue_read_buffer(buffer, 4, out).is_ok());
  auto bad_read = queue.enqueue_read_buffer(buffer, 6, out);
  EXPECT_FALSE(bad_read.is_ok());
  EXPECT_NE(bad_read.status().message().find("read of 4 bytes at offset 6"),
            std::string::npos)
      << bad_read.status().to_string();
  // Drain the pending valid read before `out` goes out of scope.
  EXPECT_TRUE(queue.finish().is_ok());
}

TEST(KernelRunner, RequiresWeightsBeforeRun) {
  const nn::Network model =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  FlowFixture fixture = run_flow(model, 7);
  auto kernel = LoadedKernel::from_xclbin(fixture.flow.xclbin);
  ASSERT_TRUE(kernel.is_ok());
  EXPECT_FALSE(kernel.value().weights_loaded());
  const auto inputs = condor::testing::random_inputs(model, 1, 3);
  EXPECT_FALSE(kernel.value().run(inputs).is_ok());
  ASSERT_TRUE(kernel.value().load_weights(fixture.flow.weight_file_bytes).is_ok());
  EXPECT_TRUE(kernel.value().run(inputs).is_ok());
}

TEST(KernelRunner, FixedPointClockMatchesTheFlowSynthesis) {
  // A fixed8 TC1: its tanh PEs close at the fixed8 timing preset
  // (transcendental factor 0.90 against float32's 0.46). The loaded kernel
  // must price the plan the way the flow that built it did.
  const nn::Network model = nn::make_tc1();
  hw::HwNetwork annotated = hw::with_default_annotations(model);
  annotated.hw.data_type = nn::DataType::kFixed8;
  condorflow::FrontendInput input;
  input.network_json_text = hw::to_json_text(annotated);
  input.weight_file_bytes =
      nn::initialize_weights(model, 9).value().serialize();
  auto flow = condorflow::Flow::run(input, condorflow::FlowOptions{});
  ASSERT_TRUE(flow.is_ok()) << flow.status().to_string();
  auto kernel = LoadedKernel::from_xclbin(flow.value().xclbin);
  ASSERT_TRUE(kernel.is_ok()) << kernel.status().to_string();
  EXPECT_EQ(kernel.value().clock_mhz(),
            flow.value().synthesis.achieved_clock_mhz);

  // The float32 presets would have priced the same plan lower.
  auto float_priced =
      hls::synthesize(flow.value().plan, hls::SynthesisOptions{});
  ASSERT_TRUE(float_priced.is_ok()) << float_priced.status().to_string();
  EXPECT_LT(float_priced.value().achieved_clock_mhz,
            kernel.value().clock_mhz());
}

}  // namespace
}  // namespace condor::runtime
