// Runtime SIMD dispatch tests (nn/kernels_simd.hpp).
//
// Two layers of byte-equality evidence:
//  1. Kernel level — every compiled-in dispatch variant of the packed MAC
//     microkernels is compared byte-for-byte against the scalar kernel over
//     an edge-case shape grid (oc counts straddling the vector widths,
//     out_w == 0, tap_count == 0, strided taps, empty inner products). The
//     fixed8 int16-pair kernels get a denser grid at the int8 code extremes:
//     unpaired last taps and rows, every oc count up to 67, conv lane
//     slices, and the inner product's 64-output block edges.
//  2. Executor level — full accelerator runs of the same plan produce
//     byte-identical outputs when the process dispatch is pinned to each
//     available level (float32, fixed16 and fixed8 datapaths, at several
//     parallel_out degrees).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "nn/kernels.hpp"
#include "nn/kernels_simd.hpp"
#include "nn/models.hpp"
#include "nn/numeric.hpp"
#include "test_util.hpp"

namespace condor {
namespace {

using nn::kernels::SimdLevel;
using testing::TinyNetConfig;

constexpr SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                    SimdLevel::kAvx512};

/// Pins the process-wide kernel dispatch for one scope, restoring the
/// previous level on exit. `installed()` reports the level that actually
/// took effect (requests above max_supported clamp).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(nn::kernels::active_simd_level()),
        installed_(nn::kernels::set_active_simd_level_for_testing(level)) {}
  ~ScopedSimdLevel() { nn::kernels::set_active_simd_level_for_testing(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

  [[nodiscard]] SimdLevel installed() const noexcept { return installed_; }

 private:
  SimdLevel previous_;
  SimdLevel installed_;
};

template <typename T>
T random_value(Rng& rng);

template <>
float random_value<float>(Rng& rng) {
  return rng.uniform(-2.0F, 2.0F);
}

template <>
std::int32_t random_value<std::int32_t>(Rng& rng) {
  // Small codes: products and sums stay exact in the int32 accumulator too.
  return static_cast<std::int32_t>(rng.next_u64() % 255U) - 127;
}

template <>
std::int64_t random_value<std::int64_t>(Rng& rng) {
  // Accumulator seeds (bias values) for the widening fixed16 datapath.
  return static_cast<std::int64_t>(rng.next_u64() % 65535U) - 32767;
}

template <typename T>
std::vector<T> random_vector(std::size_t count, Rng& rng) {
  std::vector<T> values(count);
  for (T& v : values) {
    v = random_value<T>(rng);
  }
  return values;
}

/// Byte comparison that is meaningful for float: NaN-safe, -0.0 != +0.0.
template <typename Acc>
void expect_bytes_equal(const std::vector<Acc>& got,
                        const std::vector<Acc>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(Acc)))
      << what << ": dispatch variant diverges from scalar";
}

/// Runs the conv row kernel of every available level over one shape and
/// compares against the scalar result byte-for-byte. Tap and weight values
/// come from `source(count, rng)`; a `packed_stride` wider than `oc_count`
/// is the oc-sliced lane case.
template <typename T, typename Acc, typename Source>
void check_conv_shape(std::size_t oc_count, std::size_t packed_stride,
                      std::size_t out_w, std::size_t tap_count,
                      std::size_t x_stride, std::uint64_t seed,
                      Source source) {
  Rng rng(seed);
  // Tap rows: each must cover out_w strided reads.
  const std::size_t row_len = out_w == 0 ? 1 : out_w * x_stride;
  std::vector<std::vector<T>> rows;
  std::vector<const T*> taps;
  rows.reserve(tap_count);
  for (std::size_t t = 0; t < tap_count; ++t) {
    rows.push_back(source(row_len, rng));
    taps.push_back(rows.back().data());
  }
  const std::vector<T> packed =
      source(std::max<std::size_t>(tap_count, 1) * packed_stride, rng);
  const std::vector<Acc> seed_acc =
      random_vector<Acc>(std::max<std::size_t>(oc_count * out_w, 1), rng);

  std::vector<Acc> want = seed_acc;
  nn::kernels::conv_row_kernel<T, Acc>(SimdLevel::kScalar)(
      want.data(), oc_count, out_w, taps.data(), tap_count, x_stride,
      packed.data(), packed_stride);

  for (const SimdLevel level : kAllLevels) {
    const auto kernel = nn::kernels::conv_row_kernel<T, Acc>(level);
    if (kernel == nullptr) {
      continue;  // not compiled in or CPU lacks the ISA
    }
    std::vector<Acc> got = seed_acc;
    kernel(got.data(), oc_count, out_w, taps.data(), tap_count, x_stride,
           packed.data(), packed_stride);
    SCOPED_TRACE(::testing::Message()
                 << "level=" << nn::kernels::to_string(level)
                 << " oc=" << oc_count << " packed_stride=" << packed_stride
                 << " out_w=" << out_w << " taps=" << tap_count
                 << " x_stride=" << x_stride);
    expect_bytes_equal(got, want, "conv_accumulate_row");
  }
}

template <typename T, typename Acc, typename Source>
void check_inner_product_shape(std::size_t out_count,
                               std::size_t packed_stride,
                               std::size_t in_count, std::uint64_t seed,
                               Source source) {
  Rng rng(seed);
  const std::vector<T> x = source(std::max<std::size_t>(in_count, 1), rng);
  const std::vector<T> packed =
      source(std::max<std::size_t>(in_count, 1) * packed_stride, rng);
  const std::vector<Acc> seed_acc =
      random_vector<Acc>(std::max<std::size_t>(out_count, 1), rng);

  std::vector<Acc> want = seed_acc;
  nn::kernels::inner_product_kernel<T, Acc>(SimdLevel::kScalar)(
      want.data(), out_count, x.data(), in_count, packed.data(), packed_stride);

  for (const SimdLevel level : kAllLevels) {
    const auto kernel = nn::kernels::inner_product_kernel<T, Acc>(level);
    if (kernel == nullptr) {
      continue;
    }
    std::vector<Acc> got = seed_acc;
    kernel(got.data(), out_count, x.data(), in_count, packed.data(),
           packed_stride);
    SCOPED_TRACE(::testing::Message()
                 << "level=" << nn::kernels::to_string(level)
                 << " out=" << out_count << " packed_stride=" << packed_stride
                 << " in=" << in_count);
    expect_bytes_equal(got, want, "inner_product_accumulate");
  }
}

/// The fixed8 inner product over 8-bit row-pair blocks
/// (nn::kernels::pack_fixed8_inner_product's layout). Every block byte,
/// padding included, is drawn from `source`, so a kernel that let an odd
/// row's partner weight or a padding lane into a live sum diverges. x has
/// one more code past in_count and acc a guard past out_count, both
/// random: reading the first or writing the second shows up too.
template <typename Source>
void check_fixed8_inner_product_shape(std::size_t out_count,
                                      std::size_t in_count, std::uint64_t seed,
                                      Source source) {
  constexpr std::size_t kGuard = 64;
  Rng rng(seed);
  const std::vector<std::int32_t> x = source(in_count + 1, rng);
  auto layout = nn::kernels::pack_fixed8_inner_product(
      std::vector<std::int32_t>(out_count * in_count, 0), out_count, in_count);
  ASSERT_TRUE(layout.is_ok()) << layout.status().to_string();
  std::vector<std::int8_t> blocks(
      std::max<std::size_t>(layout.value().size(), 1));
  const std::vector<std::int32_t> bytes = source(blocks.size(), rng);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    blocks[i] = static_cast<std::int8_t>(bytes[i]);
  }
  const std::vector<std::int32_t> seed_acc =
      random_vector<std::int32_t>(out_count + kGuard, rng);

  std::vector<std::int32_t> want = seed_acc;
  nn::kernels::fixed8_inner_product_kernel(SimdLevel::kScalar)(
      want.data(), out_count, x.data(), in_count, blocks.data());

  for (const SimdLevel level : kAllLevels) {
    const auto kernel = nn::kernels::fixed8_inner_product_kernel(level);
    if (kernel == nullptr) {
      continue;
    }
    std::vector<std::int32_t> got = seed_acc;
    kernel(got.data(), out_count, x.data(), in_count, blocks.data());
    SCOPED_TRACE(::testing::Message()
                 << "level=" << nn::kernels::to_string(level)
                 << " out=" << out_count << " in=" << in_count);
    expect_bytes_equal(got, want, "fixed8_inner_product_accumulate");
  }
}

template <typename T, typename Acc>
void sweep_conv_shapes() {
  // oc counts straddle both vector widths (4/8 for AVX2, 8/16 for AVX-512)
  // and the 4-point × 2-vector register blocks.
  const std::size_t oc_counts[] = {1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 40};
  const std::size_t out_ws[] = {0, 1, 2, 3, 4, 5, 9};
  const std::size_t tap_counts[] = {0, 1, 3, 9};
  const std::size_t strides[] = {1, 2};
  std::uint64_t seed = 1;
  for (const std::size_t oc : oc_counts) {
    for (const std::size_t w : out_ws) {
      for (const std::size_t t : tap_counts) {
        for (const std::size_t s : strides) {
          check_conv_shape<T, Acc>(oc, oc + 3, w, t, s, seed++,
                                   random_vector<T>);
        }
      }
    }
  }
}

template <typename T, typename Acc>
void sweep_inner_product_shapes() {
  const std::size_t out_counts[] = {1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67};
  const std::size_t in_counts[] = {0, 1, 2, 5, 37};
  std::uint64_t seed = 1000;
  for (const std::size_t out : out_counts) {
    for (const std::size_t in : in_counts) {
      check_inner_product_shape<T, Acc>(out, out + 5, in, seed++,
                                        random_vector<T>);
    }
  }
}

/// Code fills for the fixed8 pair kernels: random codes, every code at one
/// end of the int8 range, or a random mix of both ends.
enum class CodeFill { kRandom, kAllMin, kAllMax, kMixedExtremes };
constexpr CodeFill kCodeFills[] = {CodeFill::kRandom, CodeFill::kAllMin,
                                   CodeFill::kAllMax, CodeFill::kMixedExtremes};

std::vector<std::int32_t> fixed8_codes(std::size_t count, CodeFill fill,
                                       Rng& rng) {
  std::vector<std::int32_t> codes(count);
  for (std::int32_t& c : codes) {
    switch (fill) {
      case CodeFill::kRandom:
        c = random_value<std::int32_t>(rng);
        break;
      case CodeFill::kAllMin:
        c = -128;
        break;
      case CodeFill::kAllMax:
        c = 127;
        break;
      case CodeFill::kMixedExtremes:
        c = (rng.next_u64() & 1U) != 0 ? 127 : -128;
        break;
    }
  }
  return codes;
}

/// A check_*_shape value source drawing `fill` codes.
auto codes_of(CodeFill fill) {
  return [fill](std::size_t count, Rng& rng) {
    return fixed8_codes(count, fill, rng);
  };
}

TEST(KernelDispatch, LevelNamesRoundTrip) {
  for (const SimdLevel level : kAllLevels) {
    SimdLevel parsed = SimdLevel::kScalar;
    ASSERT_TRUE(nn::kernels::parse_simd_level(nn::kernels::to_string(level),
                                              parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel parsed = SimdLevel::kAvx2;
  EXPECT_FALSE(nn::kernels::parse_simd_level("sse9", parsed));
  EXPECT_FALSE(nn::kernels::parse_simd_level("", parsed));
  EXPECT_EQ(parsed, SimdLevel::kAvx2) << "failed parse must not clobber out";
}

TEST(KernelDispatch, ScalarKernelsAlwaysAvailable) {
  EXPECT_NE(nullptr,
            (nn::kernels::conv_row_kernel<float, float>(SimdLevel::kScalar)));
  EXPECT_NE(nullptr, (nn::kernels::conv_row_kernel<std::int32_t, std::int64_t>(
                         SimdLevel::kScalar)));
  EXPECT_NE(nullptr, (nn::kernels::conv_row_kernel<std::int32_t, std::int32_t>(
                         SimdLevel::kScalar)));
  EXPECT_NE(nullptr, (nn::kernels::inner_product_kernel<float, float>(
                         SimdLevel::kScalar)));
  EXPECT_NE(nullptr,
            (nn::kernels::inner_product_kernel<std::int32_t, std::int64_t>(
                SimdLevel::kScalar)));
  EXPECT_NE(nullptr,
            nn::kernels::fixed8_inner_product_kernel(SimdLevel::kScalar));
}

TEST(KernelDispatch, AvailabilityMatchesMaxSupported) {
  const SimdLevel max = nn::kernels::max_supported_simd_level();
  for (const SimdLevel level : kAllLevels) {
    const bool expect_present = level <= max;
    EXPECT_EQ(expect_present,
              (nn::kernels::conv_row_kernel<float, float>(level)) != nullptr)
        << nn::kernels::to_string(level);
    EXPECT_EQ(expect_present,
              (nn::kernels::inner_product_kernel<float, float>(level)) != nullptr)
        << nn::kernels::to_string(level);
    EXPECT_EQ(expect_present,
              nn::kernels::fixed8_inner_product_kernel(level) != nullptr)
        << nn::kernels::to_string(level);
  }
}

TEST(KernelDispatch, TestingOverrideClampsAndRestores) {
  const SimdLevel before = nn::kernels::active_simd_level();
  const SimdLevel max = nn::kernels::max_supported_simd_level();
  {
    ScopedSimdLevel pinned(SimdLevel::kAvx512);
    EXPECT_LE(pinned.installed(), max);
    EXPECT_EQ(pinned.installed(), nn::kernels::active_simd_level());
  }
  EXPECT_EQ(before, nn::kernels::active_simd_level());
  {
    ScopedSimdLevel pinned(SimdLevel::kScalar);
    EXPECT_EQ(SimdLevel::kScalar, pinned.installed());
    EXPECT_EQ(SimdLevel::kScalar, nn::kernels::active_simd_level());
  }
  EXPECT_EQ(before, nn::kernels::active_simd_level());
}

TEST(KernelDispatch, CpuFeatureStringIsNonEmpty) {
  EXPECT_FALSE(nn::kernels::cpu_feature_string().empty());
}

TEST(KernelDispatch, ConvFloatMatchesScalarByteForByte) {
  sweep_conv_shapes<float, float>();
}

TEST(KernelDispatch, ConvFixed16MatchesScalarByteForByte) {
  sweep_conv_shapes<std::int32_t, std::int64_t>();
}

TEST(KernelDispatch, ConvFixed8MatchesScalarByteForByte) {
  sweep_conv_shapes<std::int32_t, std::int32_t>();
}

/// The pair kernels at the fixed8 code extremes, paired and unpaired last
/// taps (1, 2, 3, 9, 25, 49 — the 1x1 to 7x7 windows), every oc count up to
/// 67 as a whole block and as a lane slice of a wider one, 4-point blocks
/// plus a remainder point, and strided tap rows.
TEST(KernelDispatch, ConvFixed8PairKernelsMatchScalarAtCodeExtremes) {
  const std::size_t tap_counts[] = {1, 2, 3, 9, 25, 49};
  std::uint64_t seed = 5000;
  for (const CodeFill fill : kCodeFills) {
    for (const std::size_t taps : tap_counts) {
      for (std::size_t oc = 1; oc <= 67; ++oc) {
        for (const std::size_t stride : {oc, oc + 5}) {
          for (const std::size_t x_stride : {std::size_t{1}, std::size_t{2}}) {
            check_conv_shape<std::int32_t, std::int32_t>(
                oc, stride, 5, taps, x_stride, seed++, codes_of(fill));
          }
        }
      }
    }
  }
}

/// Odd and even input counts (an unpaired last row) over every output
/// count up to 67 and the block edges past it (two full blocks, a tail of
/// one lane, LeNet's ip1 width), at the fixed8 code extremes.
TEST(KernelDispatch, InnerProductFixed8PairKernelsMatchScalarAtCodeExtremes) {
  const std::size_t in_counts[] = {0, 1, 2, 3, 8, 37, 64, 129};
  std::vector<std::size_t> out_counts;
  for (std::size_t out = 1; out <= 67; ++out) {
    out_counts.push_back(out);
  }
  out_counts.insert(out_counts.end(), {128, 129, 500});
  std::uint64_t seed = 9000;
  for (const CodeFill fill : kCodeFills) {
    for (const std::size_t in : in_counts) {
      for (const std::size_t out : out_counts) {
        check_fixed8_inner_product_shape(out, in, seed++, codes_of(fill));
      }
    }
  }
}

TEST(KernelDispatch, InnerProductFloatMatchesScalarByteForByte) {
  sweep_inner_product_shapes<float, float>();
}

TEST(KernelDispatch, InnerProductFixed16MatchesScalarByteForByte) {
  sweep_inner_product_shapes<std::int32_t, std::int64_t>();
}

/// sweep_inner_product_shapes' grid on random codes, plus the block edges:
/// one lane, a quantum either side of 16, a block either side of 64, two
/// blocks, and LeNet's ip1 width.
TEST(KernelDispatch, InnerProductFixed8MatchesScalarByteForByte) {
  const std::size_t out_counts[] = {1,  3,  4,  7,  8,  9,   15,  16,  17,
                                    31, 33, 63, 64, 65, 67, 128, 129, 500};
  const std::size_t in_counts[] = {0, 1, 2, 5, 37, 800};
  std::uint64_t seed = 1000;
  for (const std::size_t out : out_counts) {
    for (const std::size_t in : in_counts) {
      check_fixed8_inner_product_shape(out, in, seed++,
                                       random_vector<std::int32_t>);
    }
  }
}

/// The public kernels.hpp entry points must follow the installed dispatch
/// and stay byte-identical across levels.
TEST(KernelDispatch, PublicEntryPointsFollowDispatch) {
  Rng rng(77);
  const std::size_t oc = 13;
  const std::size_t out_w = 4;
  const std::size_t taps_n = 9;
  std::vector<std::vector<float>> rows;
  std::vector<const float*> taps;
  for (std::size_t t = 0; t < taps_n; ++t) {
    rows.push_back(random_vector<float>(out_w, rng));
    taps.push_back(rows.back().data());
  }
  const std::vector<float> packed = random_vector<float>(taps_n * oc, rng);
  const std::vector<float> seed_acc = random_vector<float>(oc * out_w, rng);

  std::vector<std::vector<float>> results;
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel pinned(level);
    if (pinned.installed() != level) {
      continue;  // level not supported on this host
    }
    std::vector<float> acc = seed_acc;
    nn::kernels::conv_accumulate_row<float, float>(
        acc.data(), oc, out_w, taps.data(), taps_n, 1, packed.data(), oc);
    results.push_back(std::move(acc));
  }
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_bytes_equal(results[i], results.front(), "public conv entry");
  }
}

/// Runs one accelerator plan at every supported dispatch level and expects
/// byte-identical batch outputs.
void expect_executor_outputs_level_invariant(const nn::Network& network,
                                             nn::DataType data_type,
                                             std::size_t parallel_out,
                                             std::size_t batch,
                                             std::uint64_t seed) {
  auto weights = nn::initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();

  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = data_type;
  for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
    hw_net.hw.layers[i].parallel_out = parallel_out;
  }
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  const auto inputs = testing::random_inputs(network, batch, seed + 1);

  std::vector<std::vector<Tensor>> per_level;
  std::vector<SimdLevel> levels_run;
  for (const SimdLevel level : kAllLevels) {
    ScopedSimdLevel pinned(level);
    if (pinned.installed() != level) {
      continue;
    }
    auto executor =
        dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
    ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();
    auto outputs = executor.value().run_batch(inputs);
    ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
    EXPECT_EQ(executor.value().last_run_stats().simd_level,
              nn::kernels::to_string(level));
    per_level.push_back(std::move(outputs).value());
    levels_run.push_back(level);
  }
  ASSERT_GE(per_level.size(), 1U);

  const std::vector<Tensor>& want = per_level.front();
  for (std::size_t l = 1; l < per_level.size(); ++l) {
    ASSERT_EQ(per_level[l].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& got = per_level[l][i];
      ASSERT_EQ(got.shape(), want[i].shape());
      EXPECT_EQ(0, std::memcmp(got.data().data(), want[i].data().data(),
                               got.data().size() * sizeof(float)))
          << "image " << i << ": level "
          << nn::kernels::to_string(levels_run[l])
          << " diverges from " << nn::kernels::to_string(levels_run.front());
    }
  }
}

class ExecutorLevelInvariance
    : public ::testing::TestWithParam<std::tuple<nn::DataType, std::size_t>> {};

std::string executor_param_name(
    const ::testing::TestParamInfo<ExecutorLevelInvariance::ParamType>& info) {
  return std::string(nn::to_string(std::get<0>(info.param))) + "_po" +
         std::to_string(std::get<1>(info.param));
}

TEST_P(ExecutorLevelInvariance, TinyNetOutputsByteIdenticalAcrossLevels) {
  const auto [data_type, parallel_out] = GetParam();
  TinyNetConfig config;
  config.in_channels = 2;
  config.conv_outputs = 6;
  config.pad = 1;
  config.with_pool = true;
  config.with_fc = true;
  config.activation = nn::Activation::kReLU;
  expect_executor_outputs_level_invariant(testing::make_tiny_net(config),
                                          data_type, parallel_out, 2, 21);
}

INSTANTIATE_TEST_SUITE_P(
    DatapathsAndLanes, ExecutorLevelInvariance,
    ::testing::Combine(::testing::Values(nn::DataType::kFloat32,
                                         nn::DataType::kFixed16,
                                         nn::DataType::kFixed8),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    executor_param_name);

TEST(KernelDispatch, LeNetFloatOutputsByteIdenticalAcrossLevels) {
  expect_executor_outputs_level_invariant(nn::make_lenet(),
                                          nn::DataType::kFloat32, 2, 2, 33);
}

TEST(KernelDispatch, LeNetFixed16OutputsByteIdenticalAcrossLevels) {
  expect_executor_outputs_level_invariant(nn::make_lenet(),
                                          nn::DataType::kFixed16, 2, 1, 35);
}

/// ip1 (800 -> 500) runs seven full 64-output blocks and a 64-wide tail
/// block of 52 live lanes; ip2 (500 -> 10) one 16-wide block.
TEST(KernelDispatch, LeNetFixed8OutputsByteIdenticalAcrossLevels) {
  expect_executor_outputs_level_invariant(nn::make_lenet(),
                                          nn::DataType::kFixed8, 2, 2, 37);
}

}  // namespace
}  // namespace condor
