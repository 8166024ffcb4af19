// Unit tests of the packed MAC microkernels (nn/kernels.hpp): weight
// repack round trips (the fixed8 inner product's 8-bit row-pair blocks
// included, with their rejection of codes outside int8) and bit-exact
// equivalence of the packed kernels against the plain scalar accumulation
// loops they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels.hpp"

namespace condor::nn::kernels {
namespace {

std::vector<float> random_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (float& value : values) {
    value = rng.uniform(-1.0F, 1.0F);
  }
  return values;
}

TEST(NnKernels, ConvPackRoundTrips) {
  const std::size_t oc = 5;
  const std::size_t ic = 3;
  const std::size_t kh = 3;
  const std::size_t kw = 2;
  const std::vector<float> weights = random_values(oc * ic * kh * kw, 7);

  const std::vector<float> packed =
      pack_conv_weights<float>(weights, oc, ic, kh, kw);
  ASSERT_EQ(packed.size(), weights.size());
  const std::vector<float> back =
      unpack_conv_weights<float>(packed, oc, ic, kh, kw);
  EXPECT_EQ(back, weights);
}

TEST(NnKernels, ConvPackLayoutIsOcInnermost) {
  // packed[((ic * kh + ky) * kw + kx) * oc + o] == weights[((o * ic + c) * kh + ky) * kw + kx]
  const std::size_t oc = 4;
  const std::size_t ic = 2;
  const std::size_t kh = 2;
  const std::size_t kw = 3;
  const std::vector<float> weights = random_values(oc * ic * kh * kw, 11);
  const std::vector<float> packed =
      pack_conv_weights<float>(weights, oc, ic, kh, kw);
  for (std::size_t o = 0; o < oc; ++o) {
    for (std::size_t c = 0; c < ic; ++c) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          EXPECT_EQ(packed[((c * kh + ky) * kw + kx) * oc + o],
                    weights[((o * ic + c) * kh + ky) * kw + kx]);
        }
      }
    }
  }
}

TEST(NnKernels, InnerProductPackRoundTrips) {
  const std::size_t out_count = 6;
  const std::size_t in_count = 9;
  const std::vector<float> weights = random_values(out_count * in_count, 13);

  const std::vector<float> packed =
      pack_inner_product_weights<float>(weights, out_count, in_count);
  ASSERT_EQ(packed.size(), weights.size());
  // (out, in) transposed to (in, out).
  for (std::size_t o = 0; o < out_count; ++o) {
    for (std::size_t i = 0; i < in_count; ++i) {
      EXPECT_EQ(packed[i * out_count + o], weights[o * in_count + i]);
    }
  }
  EXPECT_EQ(unpack_inner_product_weights<float>(packed, out_count, in_count),
            weights);
}

TEST(NnKernels, ConvAccumulateRowMatchesScalarLoop) {
  // One (input-channel, output-row) update vs the straightforward scalar
  // triple loop, over a strided row and an oc slice with a wider packed
  // stride — both must agree bit for bit.
  const std::size_t oc_total = 7;
  const std::size_t oc0 = 2;       // slice [2, 7)
  const std::size_t oc_count = 5;
  const std::size_t out_w = 6;
  const std::size_t kh = 3;
  const std::size_t kw = 3;
  const std::size_t tap_count = kh * kw;
  const std::size_t x_stride = 2;

  const std::vector<float> row =
      random_values((out_w - 1) * x_stride + tap_count * 4, 17);
  const std::vector<float> packed = random_values(tap_count * oc_total, 19);

  std::vector<const float*> taps(tap_count);
  for (std::size_t t = 0; t < tap_count; ++t) {
    taps[t] = row.data() + t;  // arbitrary distinct per-tap base pointers
  }

  std::vector<float> acc = random_values(out_w * oc_count, 23);  // seeded
  std::vector<float> expected = acc;

  conv_accumulate_row(acc.data(), oc_count, out_w, taps.data(), tap_count,
                      x_stride, packed.data() + oc0, oc_total);

  for (std::size_t ox = 0; ox < out_w; ++ox) {
    for (std::size_t t = 0; t < tap_count; ++t) {
      const float x = taps[t][ox * x_stride];
      for (std::size_t j = 0; j < oc_count; ++j) {
        expected[ox * oc_count + j] += x * packed[t * oc_total + oc0 + j];
      }
    }
  }
  EXPECT_EQ(acc, expected);
}

TEST(NnKernels, InnerProductAccumulateMatchesScalarDot) {
  const std::size_t out_total = 9;
  const std::size_t oc0 = 3;       // slice [3, 9)
  const std::size_t out_count = 6;
  const std::size_t in_count = 31;

  const std::vector<float> x = random_values(in_count, 29);
  const std::vector<float> weights = random_values(out_total * in_count, 31);
  const std::vector<float> packed =
      pack_inner_product_weights<float>(weights, out_total, in_count);

  std::vector<float> acc = random_values(out_count, 37);  // bias seed
  std::vector<float> expected = acc;

  inner_product_accumulate(acc.data(), out_count, x.data(), in_count,
                           packed.data() + oc0, out_total);

  // Scalar row dot products in the original (out, in) layout: identical
  // ascending-input add order, so equality is exact.
  for (std::size_t j = 0; j < out_count; ++j) {
    for (std::size_t i = 0; i < in_count; ++i) {
      expected[j] += weights[(oc0 + j) * in_count + i] * x[i];
    }
  }
  EXPECT_EQ(acc, expected);
}

TEST(NnKernels, IntegerMacWidensBeforeMultiplying) {
  // The fixed16 instantiation (int32 codes, int64 accumulator) must form
  // products in the accumulator type: two near-max 16-bit codes multiply to
  // ~2^30, and a handful of such terms overflows int32.
  const std::size_t out_count = 3;
  const std::size_t in_count = 8;
  std::vector<std::int32_t> x(in_count, 32000);
  std::vector<std::int32_t> packed(in_count * out_count, -32000);
  std::vector<std::int64_t> acc(out_count, 5);

  inner_product_accumulate(acc.data(), out_count, x.data(), in_count,
                           packed.data(), out_count);

  const std::int64_t expected =
      5 + static_cast<std::int64_t>(in_count) * 32000 * -32000;
  for (const std::int64_t a : acc) {
    EXPECT_EQ(a, expected);
  }
}

TEST(NnKernels, IntegerConvRowMatchesScalarLoop) {
  const std::size_t oc_count = 4;
  const std::size_t out_w = 5;
  const std::size_t tap_count = 3;
  std::vector<std::int32_t> row((out_w - 1) + tap_count + 2);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<std::int32_t>(i * 101) - 300;
  }
  std::vector<std::int32_t> packed(tap_count * oc_count);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::int32_t>(i * 7) - 11;
  }
  std::vector<const std::int32_t*> taps(tap_count);
  for (std::size_t t = 0; t < tap_count; ++t) {
    taps[t] = row.data() + t;
  }
  std::vector<std::int64_t> acc(out_w * oc_count, 42);
  std::vector<std::int64_t> expected = acc;

  conv_accumulate_row(acc.data(), oc_count, out_w, taps.data(), tap_count,
                      std::size_t{1}, packed.data(), oc_count);

  for (std::size_t ox = 0; ox < out_w; ++ox) {
    for (std::size_t t = 0; t < tap_count; ++t) {
      for (std::size_t j = 0; j < oc_count; ++j) {
        expected[ox * oc_count + j] +=
            static_cast<std::int64_t>(taps[t][ox]) * packed[t * oc_count + j];
      }
    }
  }
  EXPECT_EQ(acc, expected);
}

/// Nonzero fixed8 codes: -128 and 127 among them, so a packer that let a
/// code wrap or dropped one would show.
std::vector<std::int32_t> nonzero_codes(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> codes(count);
  for (std::int32_t& code : codes) {
    code = static_cast<std::int32_t>(rng.next_u64() % 255U) - 128;
    if (code >= 0) {
      ++code;  // [-128, -1] and [1, 127]
    }
  }
  if (count >= 2) {
    codes[0] = -128;
    codes[count - 1] = 127;
  }
  return codes;
}

TEST(NnKernels, Fixed8InnerProductPackRoundTrips) {
  // Block edges around 16 and 64 lanes, odd and even input counts.
  for (const std::size_t out_count : {1, 15, 16, 17, 63, 64, 65, 129, 500}) {
    for (const std::size_t in_count : {1, 2, 7, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "out=" << out_count << " in=" << in_count);
      const std::vector<std::int32_t> codes =
          nonzero_codes(out_count * in_count, out_count * 31 + in_count);
      auto blocks = pack_fixed8_inner_product(codes, out_count, in_count);
      ASSERT_TRUE(blocks.is_ok()) << blocks.status().to_string();
      // 64-lane blocks, the last rounded up to 16 lanes, each holding one
      // int8 pair per lane per row pair.
      const std::size_t full = out_count / 64 * 64;
      const std::size_t padded =
          out_count == full ? full : full + (out_count - full + 15) / 16 * 16;
      EXPECT_EQ(blocks.value().size(), padded * 2 * ((in_count + 1) / 2));
      // Padding (the odd row's partner, the lanes past out_count) is zero.
      EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                    blocks.value().begin(), blocks.value().end(),
                    [](std::int8_t b) { return b != 0; })),
                codes.size());
      EXPECT_EQ(
          unpack_fixed8_inner_product(blocks.value(), out_count, in_count),
          codes);
    }
  }
}

TEST(NnKernels, Fixed8InnerProductMatchesScalarDot) {
  // The blocked kernel (at the active dispatch level) against plain row dot
  // products over the canonical (out, in) codes.
  for (const std::size_t out_count : {1, 17, 64, 65, 500}) {
    for (const std::size_t in_count : {0, 1, 2, 31, 800}) {
      SCOPED_TRACE(::testing::Message()
                   << "out=" << out_count << " in=" << in_count);
      const std::vector<std::int32_t> codes =
          nonzero_codes(out_count * in_count, out_count + 7 * in_count);
      const std::vector<std::int32_t> x =
          nonzero_codes(in_count, in_count + 3);
      auto blocks = pack_fixed8_inner_product(codes, out_count, in_count);
      ASSERT_TRUE(blocks.is_ok()) << blocks.status().to_string();
      std::vector<std::int32_t> acc(out_count);
      for (std::size_t j = 0; j < out_count; ++j) {
        acc[j] = static_cast<std::int32_t>(j) - 40;  // bias seed
      }
      std::vector<std::int32_t> expected = acc;
      fixed8_inner_product_accumulate(acc.data(), out_count, x.data(),
                                      in_count, blocks.value().data());
      for (std::size_t j = 0; j < out_count; ++j) {
        for (std::size_t h = 0; h < in_count; ++h) {
          expected[j] += codes[j * in_count + h] * x[h];
        }
      }
      EXPECT_EQ(acc, expected);
    }
  }
}

TEST(NnKernels, Fixed8InnerProductPackRejectsCodesOutsideInt8) {
  // A code one past either end of int8 is an error, never a wrapped byte.
  for (const std::int32_t bad : {128, -129, 1 << 20}) {
    std::vector<std::int32_t> codes(3 * 5, 1);
    codes[7] = bad;
    const auto blocks = pack_fixed8_inner_product(codes, 3, 5);
    ASSERT_FALSE(blocks.is_ok()) << bad;
    EXPECT_EQ(blocks.status().code(), StatusCode::kInternal);
  }
  // So is a code count that does not match the shape.
  EXPECT_FALSE(
      pack_fixed8_inner_product(std::vector<std::int32_t>(14, 1), 3, 5)
          .is_ok());
}

}  // namespace
}  // namespace condor::nn::kernels
