// Tests for the fixed-point quantization study.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"
#include "test_util.hpp"

namespace condor::nn {
namespace {

TEST(FixedPoint, FormatProperties) {
  const FixedPointFormat q12{16, 12};
  EXPECT_FLOAT_EQ(q12.resolution(), 1.0F / 4096.0F);
  EXPECT_FLOAT_EQ(q12.max_value(), (32768.0F - 1.0F) / 4096.0F);
}

TEST(FixedPoint, QuantizeRoundsAndSaturates) {
  const FixedPointFormat q2{4, 2};  // values in [-2, 1.75], step 0.25
  EXPECT_FLOAT_EQ(quantize_value(0.30F, q2), 0.25F);
  EXPECT_FLOAT_EQ(quantize_value(0.40F, q2), 0.50F);
  EXPECT_FLOAT_EQ(quantize_value(-0.30F, q2), -0.25F);
  EXPECT_FLOAT_EQ(quantize_value(100.0F, q2), 1.75F);   // saturate high
  EXPECT_FLOAT_EQ(quantize_value(-100.0F, q2), -2.0F);  // saturate low
  EXPECT_FLOAT_EQ(quantize_value(0.0F, q2), 0.0F);
}

TEST(FixedPoint, QuantizationIsIdempotent) {
  const FixedPointFormat format{16, 10};
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float value = rng.uniform(-30.0F, 30.0F);
    const float once = quantize_value(value, format);
    EXPECT_EQ(quantize_value(once, format), once);
    // Error bounded by half a step (when not saturating).
    if (std::fabs(value) < format.max_value()) {
      EXPECT_LE(std::fabs(once - value), format.resolution() / 2.0F + 1e-7F);
    }
  }
}

TEST(FixedPoint, ChooseFormatFitsRange) {
  const std::vector<float> small = {0.1F, -0.3F, 0.25F};
  const FixedPointFormat f_small = choose_format(small, 16);
  EXPECT_EQ(f_small.frac_bits, 15);  // all-fractional fits |x| < 1

  const std::vector<float> big = {100.0F, -3.0F};
  const FixedPointFormat f_big = choose_format(big, 16);
  EXPECT_GE(f_big.max_value(), 100.0F);
  // Every input representable without saturation error beyond half-step.
  for (const float v : big) {
    EXPECT_LE(std::fabs(quantize_value(v, f_big) - v),
              f_big.resolution() / 2.0F + 1e-6F);
  }

  const std::vector<float> zeros = {0.0F, 0.0F};
  EXPECT_EQ(choose_format(zeros, 8).frac_bits, 7);
}

TEST(FixedPoint, RoundsTiesHalfAwayFromZero) {
  const FixedPointFormat q2{4, 2};  // step 0.25
  EXPECT_FLOAT_EQ(quantize_value(0.125F, q2), 0.25F);  // tie rounds away
  EXPECT_FLOAT_EQ(quantize_value(-0.125F, q2), -0.25F);
  EXPECT_FLOAT_EQ(quantize_value(0.375F, q2), 0.50F);
  EXPECT_FLOAT_EQ(quantize_value(-0.375F, q2), -0.50F);
}

TEST(FixedPoint, ChooseFormatHandlesPowersOfTwo) {
  // An exact power of two must not saturate: 2.0 needs frac 13 at 16 bits
  // (frac 14 would scale to 32768 > max_code 32767).
  EXPECT_EQ(choose_format(std::vector<float>{2.0F}, 16).frac_bits, 13);
  // Just below the power of two keeps the extra fractional bit.
  EXPECT_EQ(choose_format(std::vector<float>{1.99F}, 16).frac_bits, 14);
  // Negative powers of two are exactly representable in the chosen format.
  for (const float v : {-1.0F, -0.5F, -0.25F, -0.0625F}) {
    const FixedPointFormat format = choose_format(std::vector<float>{v}, 16);
    EXPECT_EQ(quantize_value(v, format), v) << "v = " << v;
  }
}

TEST(FixedPoint, ChooseFormatDenormalScaleQuantizesToZero) {
  // A denormal magnitude cannot be lifted into the code range by any
  // non-negative frac_bits: the format stays all-fractional and the value
  // rounds to code zero instead of misbehaving.
  const std::vector<float> tiny = {1e-40F, -1e-41F};
  const FixedPointFormat format = choose_format(tiny, 16);
  EXPECT_EQ(format.frac_bits, 15);
  EXPECT_FLOAT_EQ(quantize_value(tiny[0], format), 0.0F);
}

TEST(FixedPoint, QuantizeCodeSaturatesAtCodeRange) {
  const FixedPointFormat q8{8, 4};
  EXPECT_EQ(quantize_code(1000.0F, q8), q8.max_code());
  EXPECT_EQ(quantize_code(-1000.0F, q8), q8.min_code());
  EXPECT_EQ(q8.max_code(), 127);
  EXPECT_EQ(q8.min_code(), -128);
}

TEST(FixedPoint, RealignCodeShiftsExactlyAndRoundsTiesAway) {
  EXPECT_EQ(realign_code(5, 2, 6), 80);     // gaining bits: exact shift
  EXPECT_EQ(realign_code(5, 6, 2), 0);      // 5/16 rounds to zero
  EXPECT_EQ(realign_code(24, 6, 2), 2);     // 1.5 tie rounds away
  EXPECT_EQ(realign_code(-24, 6, 2), -2);   // symmetric for negatives
  EXPECT_EQ(realign_code(-40, 6, 2), -3);   // -2.5 tie rounds away
}

// The std::ldexp formulations the shared helpers were first written with —
// the bit-for-bit reference for the exact-power-of-two versions.
double ldexp_round_half_away(double scaled) {
  return scaled >= 0.0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
}

std::int32_t ldexp_quantize_code(float value, const FixedPointFormat& format) {
  const double rounded = ldexp_round_half_away(
      std::ldexp(static_cast<double>(value), format.frac_bits));
  return static_cast<std::int32_t>(
      std::clamp(rounded, static_cast<double>(format.min_code()),
                 static_cast<double>(format.max_code())));
}

float ldexp_dequantize_code(std::int64_t code, int frac_bits) {
  return static_cast<float>(std::ldexp(static_cast<double>(code), -frac_bits));
}

std::int64_t ldexp_realign_code(std::int64_t code, int from_frac,
                                int to_frac) {
  if (to_frac >= from_frac) {
    return code << (to_frac - from_frac);
  }
  return static_cast<std::int64_t>(ldexp_round_half_away(
      std::ldexp(static_cast<double>(code), to_frac - from_frac)));
}

int ldexp_choose_frac(std::span<const float> values, int total_bits) {
  float max_abs = 0.0F;
  for (const float v : values) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  int frac = total_bits - 1;
  if (max_abs == 0.0F) {
    return frac;
  }
  const auto max_code =
      static_cast<double>(FixedPointFormat{total_bits, frac}.max_code());
  while (frac > 0 && ldexp_round_half_away(std::ldexp(
                         static_cast<double>(max_abs), frac)) > max_code) {
    --frac;
  }
  return frac;
}

/// Quantizer inputs for one format: half-way ties around zero and at both
/// saturation edges with their float neighbours, signed zeros, denormals,
/// +-FLT_MIN, +-FLT_MAX, +-infinity and random finite bit patterns.
std::vector<float> quantize_probes(const FixedPointFormat& format, Rng& rng) {
  using limits = std::numeric_limits<float>;
  std::vector<float> probes = {
      0.0F, -0.0F, limits::denorm_min(), -limits::denorm_min(), 1e-40F,
      -1e-41F, limits::min(), -limits::min(), limits::max(), -limits::max(),
      limits::infinity(), -limits::infinity()};
  const double step = std::ldexp(1.0, -format.frac_bits);
  const auto add_with_neighbours = [&](double x) {
    const auto f = static_cast<float>(x);
    probes.push_back(f);
    probes.push_back(std::nextafter(f, limits::infinity()));
    probes.push_back(std::nextafter(f, -limits::infinity()));
  };
  for (int k = -4; k <= 4; ++k) {
    add_with_neighbours((k + 0.5) * step);
  }
  for (const double edge : {static_cast<double>(format.max_code()),
                            static_cast<double>(format.min_code())}) {
    for (const double offset : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
      add_with_neighbours((edge + offset) * step);
    }
  }
  while (probes.size() < 160) {
    const auto value =
        std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
    if (!std::isnan(value)) {
      probes.push_back(value);
    }
  }
  return probes;
}

/// Accumulator-width codes: narrow-format extremes, the int32 and int64
/// extremes, the first integers double cannot hold, and one random code
/// of each magnitude width, both signs.
std::vector<std::int64_t> code_probes(Rng& rng) {
  using i32 = std::numeric_limits<std::int32_t>;
  using i64 = std::numeric_limits<std::int64_t>;
  std::vector<std::int64_t> codes = {0, 1, -1, 127, -128, 32767, -32768,
                                     i32::max(), i32::min(),
                                     (std::int64_t{1} << 53) + 1,
                                     -((std::int64_t{1} << 53) + 1),
                                     i64::max(), i64::min()};
  for (int width = 1; width <= 63; ++width) {
    const auto magnitude =
        static_cast<std::int64_t>(rng.next_u64() >> (64 - width));
    codes.push_back(magnitude);
    codes.push_back(-magnitude);
  }
  return codes;
}

TEST(FixedPoint, QuantizeMatchesLdexpBitForBit) {
  Rng rng(17);
  for (const int bits : {8, 16, 32}) {
    for (int frac = 0; frac <= 30; ++frac) {
      const FixedPointFormat format{bits, frac};
      for (const float value : quantize_probes(format, rng)) {
        ASSERT_EQ(quantize_code(value, format),
                  ldexp_quantize_code(value, format))
            << bits << "-bit frac " << frac << " value " << value;
      }
    }
    // quantize_span: the chosen format and every code of blobs whose
    // magnitudes sweep from denormal scale to far past the code range.
    for (int exponent = -140; exponent <= 120; exponent += 4) {
      std::vector<float> blob(96);
      for (float& value : blob) {
        value = std::ldexp(rng.uniform(-1.0F, 1.0F), exponent);
      }
      std::vector<std::int32_t> codes;
      const FixedPointFormat format = quantize_span(blob, bits, codes);
      ASSERT_EQ(format.frac_bits, ldexp_choose_frac(blob, bits))
          << bits << "-bit blob at 2^" << exponent;
      ASSERT_EQ(codes.size(), blob.size());
      for (std::size_t i = 0; i < blob.size(); ++i) {
        ASSERT_EQ(codes[i], ldexp_quantize_code(blob[i], format))
            << bits << "-bit blob at 2^" << exponent << " element " << i;
      }
    }
  }
}

TEST(FixedPoint, DequantizeMatchesLdexpBitForBit) {
  Rng rng(19);
  const std::vector<std::int64_t> codes = code_probes(rng);
  for (int frac = 0; frac <= 30; ++frac) {
    for (const std::int64_t code : codes) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(dequantize_code(code, frac)),
                std::bit_cast<std::uint32_t>(ldexp_dequantize_code(code, frac)))
          << "code " << code << " frac " << frac;
    }
  }
}

TEST(FixedPoint, RealignMatchesLdexpBitForBit) {
  Rng rng(23);
  const std::vector<std::int64_t> wide = code_probes(rng);
  for (int from = 0; from <= 30; ++from) {
    for (int to = 0; to <= 30; ++to) {
      std::vector<std::int64_t> codes;
      if (to < from) {
        // Losing bits: the half-way ties of the dropped fraction with their
        // neighbours, then accumulator-wide codes.
        const std::int64_t half = std::int64_t{1} << (from - to - 1);
        for (std::int64_t k = -3; k <= 3; ++k) {
          const std::int64_t tie = (2 * k + 1) * half;
          codes.insert(codes.end(), {tie - 1, tie, tie + 1});
        }
        codes.insert(codes.end(), wide.begin(), wide.end());
      } else {
        // Gaining bits is an exact shift: every code whose shifted value
        // stays inside int64.
        for (const std::int64_t code : wide) {
          if (code >= std::numeric_limits<std::int32_t>::min() &&
              code <= std::numeric_limits<std::int32_t>::max()) {
            codes.push_back(code);
          }
        }
      }
      for (const std::int64_t code : codes) {
        ASSERT_EQ(realign_code(code, from, to),
                  ldexp_realign_code(code, from, to))
            << "code " << code << " from " << from << " to " << to;
      }
    }
  }
}

TEST(FixedPoint, DataTypeHelpers) {
  EXPECT_EQ(bytes_per_element(DataType::kFloat32), 4u);
  EXPECT_EQ(bytes_per_element(DataType::kFixed16), 2u);
  EXPECT_EQ(bytes_per_element(DataType::kFixed8), 1u);
  EXPECT_EQ(to_string(DataType::kFixed16), "fixed16");
}

TEST(QuantizedWeights, Float32IsIdentity) {
  auto weights = initialize_weights(make_tc1(), 1).value();
  auto same = quantize_weights(weights, DataType::kFloat32);
  ASSERT_TRUE(same.is_ok());
  EXPECT_EQ(max_abs_diff(same.value().find("conv1")->weights,
                         weights.find("conv1")->weights),
            0.0F);
}

TEST(QuantizedWeights, Fixed16StaysClose) {
  auto weights = initialize_weights(make_lenet(), 2).value();
  auto quantized = quantize_weights(weights, DataType::kFixed16);
  ASSERT_TRUE(quantized.is_ok());
  const float diff = max_abs_diff(quantized.value().find("conv1")->weights,
                                  weights.find("conv1")->weights);
  EXPECT_GT(diff, 0.0F);       // something changed
  EXPECT_LT(diff, 1.0F / 4096);  // but within the dynamic-format resolution
}

TEST(QuantizedEngine, Fixed16OutputsCloseToFloat) {
  const Network tc1 = make_tc1();
  auto weights = initialize_weights(tc1, 3).value();
  auto float_engine = ReferenceEngine::create(tc1, weights).value();
  auto quant_engine =
      QuantizedEngine::create(tc1, weights, DataType::kFixed16).value();
  const auto inputs = condor::testing::random_inputs(tc1, 4, 21);
  for (const Tensor& input : inputs) {
    const Tensor reference = float_engine.forward(input).value();
    auto quantized = quant_engine.forward(input);
    ASSERT_TRUE(quantized.is_ok());
    const QuantizationError error =
        compare_outputs(reference, quantized.value());
    EXPECT_LT(error.mean_abs_error, 0.02F);
    // Probabilities still sum to ~1 (softmax runs in float on the host).
    float sum = 0.0F;
    for (const float p : quantized.value().data()) {
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0F, 1e-4F);
  }
}

TEST(QuantizedEngine, Fixed8ErrorLargerThanFixed16) {
  const Network tc1 = make_tc1();
  auto weights = initialize_weights(tc1, 4).value();
  auto float_engine = ReferenceEngine::create(tc1, weights).value();
  auto q16 = QuantizedEngine::create(tc1, weights, DataType::kFixed16).value();
  auto q8 = QuantizedEngine::create(tc1, weights, DataType::kFixed8).value();
  const auto inputs = condor::testing::random_inputs(tc1, 8, 23);
  float err16 = 0.0F;
  float err8 = 0.0F;
  for (const Tensor& input : inputs) {
    const Tensor reference = float_engine.forward(input).value();
    err16 += compare_outputs(reference, q16.forward(input).value()).mean_abs_error;
    err8 += compare_outputs(reference, q8.forward(input).value()).mean_abs_error;
  }
  EXPECT_GT(err8, err16);
}

TEST(QuantizationModels, Fixed16ShrinksResourcesAndLiftsClock) {
  const nn::Network model = make_lenet();
  hw::HwNetwork net = hw::with_default_annotations(model, "aws-f1", 250.0);

  hw::DseOptions float_options;
  hw::DseOptions fixed_options;
  fixed_options.cost = hw::cost_model_for(DataType::kFixed16);
  fixed_options.timing = hw::timing_model_for(DataType::kFixed16);

  auto float_point = hw::evaluate_design_point(net, float_options);
  auto fixed_point = hw::evaluate_design_point(net, fixed_options);
  ASSERT_TRUE(float_point.is_ok());
  ASSERT_TRUE(fixed_point.is_ok());
  // Fewer DSPs, less BRAM (16-bit weights), higher or equal clock.
  EXPECT_LT(fixed_point.value().resources.total.dsps,
            float_point.value().resources.total.dsps);
  EXPECT_LT(fixed_point.value().resources.total.bram36,
            float_point.value().resources.total.bram36);
  EXPECT_GE(fixed_point.value().achieved_mhz, float_point.value().achieved_mhz);
}

TEST(QuantizationModels, Tc1TanhTableRemovesClockCap) {
  // TC1's float tanh caps the design at 100 MHz; the fixed16 lookup-table
  // activation lifts it substantially.
  hw::HwNetwork net = hw::with_default_annotations(make_tc1(), "aws-f1", 250.0);
  hw::DseOptions fixed_options;
  fixed_options.cost = hw::cost_model_for(DataType::kFixed16);
  fixed_options.timing = hw::timing_model_for(DataType::kFixed16);
  auto float_point = hw::evaluate_design_point(net);
  auto fixed_point = hw::evaluate_design_point(net, fixed_options);
  ASSERT_TRUE(float_point.is_ok());
  ASSERT_TRUE(fixed_point.is_ok());
  EXPECT_DOUBLE_EQ(float_point.value().achieved_mhz, 100.0);
  EXPECT_GE(fixed_point.value().achieved_mhz, 180.0);
}

/// Plans `network` with the given numeric datapath, runs the dataflow
/// executor and EXPECTs its outputs bit-identical to nn::QuantizedEngine —
/// the fixed-datapath counterpart of the float executor-vs-reference suite.
void expect_executor_matches_quantized(const Network& network, DataType type,
                                       std::size_t batch, std::uint64_t seed,
                                       std::size_t parallel_out = 0) {
  auto weights = initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();
  auto engine = QuantizedEngine::create(network, weights.value(), type);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = type;
  if (parallel_out > 0) {
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i].parallel_out = parallel_out;
    }
  }
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value().data_type(), type);

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
        << "image " << i << " diverges from the quantized reference";
  }
}

TEST(FixedDataflow, Tc1Fixed16BitExact) {
  expect_executor_matches_quantized(make_tc1(), DataType::kFixed16, 3, 51);
}

TEST(FixedDataflow, Tc1Fixed8BitExact) {
  expect_executor_matches_quantized(make_tc1(), DataType::kFixed8, 3, 53);
}

TEST(FixedDataflow, LeNetFixed16BitExact) {
  expect_executor_matches_quantized(make_lenet(), DataType::kFixed16, 2, 57);
}

TEST(FixedDataflow, LeNetFixed8BitExact) {
  expect_executor_matches_quantized(make_lenet(), DataType::kFixed8, 2, 59);
}

TEST(FixedDataflow, ParallelOutDegreesStayBitExactPerDataType) {
  // Integer accumulation is exact, so the intra-layer unfold degree must
  // not perturb a single code: every degree has to reproduce the quantized
  // reference (and hence the degree-1 design) byte for byte.
  for (const DataType type : {DataType::kFixed16, DataType::kFixed8}) {
    // TC1's narrowest layer has 6 output maps; 5 exercises the non-divisor
    // slicing.
    for (const std::size_t degree : {std::size_t{2}, std::size_t{3},
                                     std::size_t{5}}) {
      SCOPED_TRACE(std::string(to_string(type)) + " parallel_out=" +
                   std::to_string(degree));
      expect_executor_matches_quantized(make_tc1(), type, 2, 61, degree);
    }
  }
}

}  // namespace
}  // namespace condor::nn
