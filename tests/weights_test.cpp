// Unit tests for the weight store: initialization, validation, and the
// external weight-file format (paper §3.1.1's runtime-loaded weights).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "common/byte_io.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"

namespace condor::nn {
namespace {

TEST(WeightInit, DeterministicPerSeed) {
  const Network lenet = make_lenet();
  auto a = initialize_weights(lenet, 42);
  auto b = initialize_weights(lenet, 42);
  auto c = initialize_weights(lenet, 43);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(c.is_ok());
  const Tensor& wa = a.value().find("conv1")->weights;
  const Tensor& wb = b.value().find("conv1")->weights;
  const Tensor& wc = c.value().find("conv1")->weights;
  EXPECT_EQ(max_abs_diff(wa, wb), 0.0F);
  EXPECT_GT(max_abs_diff(wa, wc), 0.0F);
}

TEST(WeightInit, GlorotBoundsRespected) {
  const Network lenet = make_lenet();
  auto store = initialize_weights(lenet, 1);
  ASSERT_TRUE(store.is_ok());
  // conv1: fan_in = 25, fan_out = 20 -> limit = sqrt(6/45) ~= 0.365.
  const float limit = std::sqrt(6.0F / 45.0F);
  for (const float w : store.value().find("conv1")->weights.data()) {
    EXPECT_LE(std::fabs(w), limit);
  }
  // Biases start at zero.
  for (const float b : store.value().find("conv1")->bias.data()) {
    EXPECT_EQ(b, 0.0F);
  }
}

TEST(WeightStore, ValidateAgainstDetectsProblems) {
  const Network lenet = make_lenet();
  auto store = initialize_weights(lenet, 2);
  ASSERT_TRUE(store.is_ok());
  ASSERT_TRUE(store.value().validate_against(lenet).is_ok());

  // Missing layer.
  WeightStore empty;
  EXPECT_EQ(empty.validate_against(lenet).code(), StatusCode::kNotFound);

  // Wrong weight shape.
  WeightStore bad = store.value();
  LayerParameters params;
  params.weights = Tensor(Shape{20, 1, 3, 3});  // should be 5x5
  params.bias = Tensor(Shape{20});
  bad.set("conv1", std::move(params));
  EXPECT_EQ(bad.validate_against(lenet).code(), StatusCode::kInvalidInput);
}

TEST(WeightFile, SerializeDeserializeRoundTrip) {
  const Network tc1 = make_tc1();
  auto store = initialize_weights(tc1, 3);
  ASSERT_TRUE(store.is_ok());
  const auto bytes = store.value().serialize();
  auto restored = WeightStore::deserialize(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value().layer_count(), store.value().layer_count());
  for (const auto& [name, params] : store.value().all()) {
    const LayerParameters* other = restored.value().find(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(max_abs_diff(params.weights, other->weights), 0.0F);
    if (!params.bias.empty()) {
      EXPECT_EQ(max_abs_diff(params.bias, other->bias), 0.0F);
    }
  }
}

TEST(WeightFile, CorruptionDetectedByCrc) {
  const Network tc1 = make_tc1();
  auto store = initialize_weights(tc1, 4);
  ASSERT_TRUE(store.is_ok());
  auto bytes = store.value().serialize();
  // Flip a byte inside the first entry payload (past the 8-byte header).
  bytes[40] ^= std::byte{0xFF};
  auto restored = WeightStore::deserialize(bytes);
  ASSERT_FALSE(restored.is_ok());
  EXPECT_NE(restored.status().message().find("CRC"), std::string::npos);
}

TEST(WeightFile, RejectsGarbage) {
  std::vector<std::byte> garbage(64, std::byte{0x5A});
  EXPECT_FALSE(WeightStore::deserialize(garbage).is_ok());
  EXPECT_FALSE(WeightStore::deserialize({}).is_ok());
}

TEST(WeightFile, LeNetFormatIsPinned) {
  // The weight-file format is fixed: the LeNet seed-7 file's size and CRC
  // are pinned, and a parse re-serializes to the same bytes.
  const auto bytes = initialize_weights(make_lenet(), 7).value().serialize();
  EXPECT_EQ(bytes.size(), 1724572U);
  EXPECT_EQ(crc32(bytes), 0x8386102EU);
  auto restored = WeightStore::deserialize(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_TRUE(restored.value().serialize() == bytes);
}

/// A one-entry weight file with a valid CRC whose weight tensor declares
/// `dims` but carries a single float.
std::vector<std::byte> one_entry_file(std::initializer_list<std::uint64_t> dims) {
  ByteWriter entry;
  entry.u32le(2);
  entry.string_bytes("fc");
  entry.u32le(static_cast<std::uint32_t>(dims.size()));
  for (const std::uint64_t dim : dims) {
    entry.u64le(dim);
  }
  entry.f32le(1.0F);
  entry.u8(0);  // no bias
  ByteWriter file;
  file.u32le(0x31465743);  // "CWF1"
  file.u32le(1);
  file.u64le(entry.size());
  file.u32le(crc32(entry.view()));
  file.bytes(entry.view());
  return std::move(file).take();
}

TEST(WeightFile, DeclaredDimsMustFitTheFile) {
  auto one = WeightStore::deserialize(one_entry_file({1}));
  ASSERT_TRUE(one.is_ok()) << one.status().to_string();
  EXPECT_EQ(one.value().find("fc")->weights.shape(), (Shape{1}));

  // Dims promising more floats than the entry holds (2^40, 2^62), or whose
  // product overflows ({2^32, 2^32} wraps to 0), are rejected before
  // anything is allocated for them.
  for (const auto& dims : {std::initializer_list<std::uint64_t>{1ULL << 40},
                           std::initializer_list<std::uint64_t>{1ULL << 62},
                           std::initializer_list<std::uint64_t>{1ULL << 32,
                                                                1ULL << 32}}) {
    const auto result = WeightStore::deserialize(one_entry_file(dims));
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput)
        << result.status().to_string();
  }
}

TEST(WeightFile, SaveLoadFile) {
  const Network tc1 = make_tc1();
  auto store = initialize_weights(tc1, 5);
  ASSERT_TRUE(store.is_ok());
  const std::string path = ::testing::TempDir() + "/tc1_weights_test.bin";
  ASSERT_TRUE(store.value().save(path).is_ok());
  auto loaded = WeightStore::load(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().validate_against(tc1).is_ok());
}

TEST(WeightFile, BiaslessLayerRoundTrips) {
  Network net("nobias");
  LayerSpec input;
  input.name = "data";
  input.kind = LayerKind::kInput;
  input.input_channels = 1;
  input.input_height = 4;
  input.input_width = 4;
  net.add(input);
  LayerSpec conv;
  conv.name = "conv";
  conv.kind = LayerKind::kConvolution;
  conv.num_output = 2;
  conv.kernel_h = conv.kernel_w = 3;
  conv.has_bias = false;
  net.add(conv);

  auto store = initialize_weights(net, 6);
  ASSERT_TRUE(store.is_ok());
  EXPECT_TRUE(store.value().find("conv")->bias.empty());
  auto restored = WeightStore::deserialize(store.value().serialize());
  ASSERT_TRUE(restored.is_ok());
  EXPECT_TRUE(restored.value().find("conv")->bias.empty());
  EXPECT_TRUE(restored.value().validate_against(net).is_ok());
}

}  // namespace
}  // namespace condor::nn
