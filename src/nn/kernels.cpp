#include "nn/kernels.hpp"

#include <cstdint>

#include "common/strings.hpp"
#include "nn/kernels_simd_internal.hpp"

namespace condor::nn::kernels {

template <typename T>
std::vector<T> pack_conv_weights(std::span<const T> weights,
                                 std::size_t out_channels,
                                 std::size_t in_channels,
                                 std::size_t window_h,
                                 std::size_t window_w) {
  const std::size_t taps = window_h * window_w;
  std::vector<T> packed(out_channels * in_channels * taps);
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    const T* src = weights.data() + oc * in_channels * taps;
    for (std::size_t it = 0; it < in_channels * taps; ++it) {
      packed[it * out_channels + oc] = src[it];
    }
  }
  return packed;
}

template <typename T>
std::vector<T> unpack_conv_weights(std::span<const T> packed,
                                   std::size_t out_channels,
                                   std::size_t in_channels,
                                   std::size_t window_h,
                                   std::size_t window_w) {
  const std::size_t taps = window_h * window_w;
  std::vector<T> weights(out_channels * in_channels * taps);
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    T* dst = weights.data() + oc * in_channels * taps;
    for (std::size_t it = 0; it < in_channels * taps; ++it) {
      dst[it] = packed[it * out_channels + oc];
    }
  }
  return weights;
}

template <typename T>
std::vector<T> pack_inner_product_weights(std::span<const T> weights,
                                          std::size_t out_count,
                                          std::size_t in_count) {
  std::vector<T> packed(out_count * in_count);
  for (std::size_t o = 0; o < out_count; ++o) {
    for (std::size_t h = 0; h < in_count; ++h) {
      packed[h * out_count + o] = weights[o * in_count + h];
    }
  }
  return packed;
}

template <typename T>
std::vector<T> unpack_inner_product_weights(std::span<const T> packed,
                                            std::size_t out_count,
                                            std::size_t in_count) {
  std::vector<T> weights(out_count * in_count);
  for (std::size_t o = 0; o < out_count; ++o) {
    for (std::size_t h = 0; h < in_count; ++h) {
      weights[o * in_count + h] = packed[h * out_count + o];
    }
  }
  return weights;
}

namespace {

/// Byte index of w[o][h] in pack_fixed8_inner_product's layout.
std::size_t fixed8_weight_index(std::size_t out_count, std::size_t in_count,
                                std::size_t o, std::size_t h) noexcept {
  const std::size_t first = o - o % detail::kFixed8BlockOutputs;
  const std::size_t width = detail::fixed8_block_width(out_count, first);
  return detail::fixed8_block_offset(first, in_count) + h / 2 * 2 * width +
         2 * (o - first) + h % 2;
}

}  // namespace

Result<std::vector<std::int8_t>> pack_fixed8_inner_product(
    std::span<const std::int32_t> codes, std::size_t out_count,
    std::size_t in_count) {
  if (codes.size() != out_count * in_count) {
    return internal_error(strings::format(
        "fixed8 inner product: %zu weight codes for %zu x %zu weights",
        codes.size(), out_count, in_count));
  }
  // Every block ends where the next would start, the last one included.
  const std::size_t last =
      out_count == 0 ? 0
                     : (out_count - 1) / detail::kFixed8BlockOutputs *
                           detail::kFixed8BlockOutputs;
  const std::size_t padded =
      out_count == 0 ? 0 : last + detail::fixed8_block_width(out_count, last);
  std::vector<std::int8_t> blocks(
      detail::fixed8_block_offset(padded, in_count));
  for (std::size_t o = 0; o < out_count; ++o) {
    for (std::size_t h = 0; h < in_count; ++h) {
      const std::int32_t code = codes[o * in_count + h];
      if (code < INT8_MIN || code > INT8_MAX) {
        return internal_error(strings::format(
            "fixed8 weight code %d (output %zu, input %zu) lies outside int8",
            code, o, h));
      }
      blocks[fixed8_weight_index(out_count, in_count, o, h)] =
          static_cast<std::int8_t>(code);
    }
  }
  return blocks;
}

std::vector<std::int32_t> unpack_fixed8_inner_product(
    std::span<const std::int8_t> blocks, std::size_t out_count,
    std::size_t in_count) {
  std::vector<std::int32_t> codes(out_count * in_count);
  for (std::size_t o = 0; o < out_count; ++o) {
    for (std::size_t h = 0; h < in_count; ++h) {
      codes[o * in_count + h] =
          blocks[fixed8_weight_index(out_count, in_count, o, h)];
    }
  }
  return codes;
}

namespace detail {
namespace {

// Portable loop bodies: the dispatch's always-available fallback, and the
// byte-equality oracle every SIMD variant is tested against. Auto-vectorized
// at -O3 with contraction disabled (see nn/CMakeLists.txt) so the float
// multiply-then-add keeps two roundings on every build.
template <typename T, typename Acc>
void scalar_conv_row(Acc* acc, std::size_t oc_count, std::size_t out_w,
                     const T* const* taps, std::size_t tap_count,
                     std::size_t x_stride, const T* packed,
                     std::size_t packed_stride) {
  for (std::size_t ox = 0; ox < out_w; ++ox) {
    Acc* __restrict point_acc = acc + ox * oc_count;
    for (std::size_t t = 0; t < tap_count; ++t) {
      const Acc x = static_cast<Acc>(taps[t][ox * x_stride]);
      const T* __restrict w = packed + t * packed_stride;
      for (std::size_t j = 0; j < oc_count; ++j) {
        point_acc[j] += static_cast<Acc>(w[j]) * x;
      }
    }
  }
}

template <typename T, typename Acc>
void scalar_inner_product(Acc* acc, std::size_t out_count,
                          const T* x, std::size_t in_count,
                          const T* packed, std::size_t packed_stride) {
  for (std::size_t h = 0; h < in_count; ++h) {
    const Acc xv = static_cast<Acc>(x[h]);
    const T* __restrict w = packed + h * packed_stride;
    Acc* __restrict a = acc;
    for (std::size_t j = 0; j < out_count; ++j) {
      a[j] += static_cast<Acc>(w[j]) * xv;
    }
  }
}

/// Block by block, row pair by row pair, over the live lanes only; an odd
/// last row's partner code is zero.
void scalar_fixed8_inner_product(std::int32_t* acc, std::size_t out_count,
                                 const std::int32_t* x, std::size_t in_count,
                                 const std::int8_t* blocks) {
  for (std::size_t first = 0; first < out_count; first += kFixed8BlockOutputs) {
    const std::size_t width = fixed8_block_width(out_count, first);
    const std::size_t lanes = std::min(width, out_count - first);
    const std::int8_t* w = blocks + fixed8_block_offset(first, in_count);
    std::int32_t* __restrict a = acc + first;
    for (std::size_t h = 0; h < in_count; h += 2, w += 2 * width) {
      const std::int32_t x0 = x[h];
      const std::int32_t x1 = h + 1 < in_count ? x[h + 1] : 0;
      for (std::size_t j = 0; j < lanes; ++j) {
        a[j] += w[2 * j] * x0 + w[2 * j + 1] * x1;
      }
    }
  }
}

/// choose_format's max-abs scan, fused with quantize_span's per-element
/// loop when `codes` is given.
float scalar_quantize(const float* values, std::size_t count, double scale,
                      double min_code, double max_code, std::int32_t* codes) {
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::abs(values[i]));
    if (codes != nullptr) {
      codes[i] = quantize_scaled(values[i], scale, min_code, max_code);
    }
  }
  return max_abs;
}

}  // namespace

const IsaKernels& scalar_kernels() noexcept {
  static const IsaKernels kTable = {
      &scalar_conv_row<float, float>,
      &scalar_conv_row<std::int32_t, std::int64_t>,
      &scalar_conv_row<std::int32_t, std::int32_t>,
      &scalar_inner_product<float, float>,
      &scalar_inner_product<std::int32_t, std::int64_t>,
      &scalar_fixed8_inner_product,
      &scalar_quantize,
  };
  return kTable;
}

}  // namespace detail

template <typename T, typename Acc>
void conv_accumulate_row(Acc* acc, std::size_t oc_count, std::size_t out_w,
                         const T* const* taps, std::size_t tap_count,
                         std::size_t x_stride, const T* packed,
                         std::size_t packed_stride) {
  detail::active_conv_row<T, Acc>()(acc, oc_count, out_w, taps, tap_count,
                                    x_stride, packed, packed_stride);
}

template <typename T, typename Acc>
void inner_product_accumulate(Acc* acc, std::size_t out_count,
                              const T* x, std::size_t in_count,
                              const T* packed, std::size_t packed_stride) {
  detail::active_inner_product<T, Acc>()(acc, out_count, x, in_count, packed,
                                         packed_stride);
}

void fixed8_inner_product_accumulate(std::int32_t* acc, std::size_t out_count,
                                     const std::int32_t* x,
                                     std::size_t in_count,
                                     const std::int8_t* blocks) {
  detail::active_fixed8_inner_product()(acc, out_count, x, in_count, blocks);
}

// Explicit instantiations — the only (T, Acc) combinations the datapaths
// use (float, and int32 codes with a widened integer accumulator). They
// live here so every caller links against this -O3-compiled TU.
template std::vector<float> pack_conv_weights<float>(
    std::span<const float>, std::size_t, std::size_t, std::size_t, std::size_t);
template std::vector<std::int32_t> pack_conv_weights<std::int32_t>(
    std::span<const std::int32_t>, std::size_t, std::size_t, std::size_t,
    std::size_t);
template std::vector<float> unpack_conv_weights<float>(
    std::span<const float>, std::size_t, std::size_t, std::size_t, std::size_t);
template std::vector<std::int32_t> unpack_conv_weights<std::int32_t>(
    std::span<const std::int32_t>, std::size_t, std::size_t, std::size_t,
    std::size_t);
template std::vector<float> pack_inner_product_weights<float>(
    std::span<const float>, std::size_t, std::size_t);
template std::vector<std::int32_t> pack_inner_product_weights<std::int32_t>(
    std::span<const std::int32_t>, std::size_t, std::size_t);
template std::vector<float> unpack_inner_product_weights<float>(
    std::span<const float>, std::size_t, std::size_t);
template std::vector<std::int32_t> unpack_inner_product_weights<std::int32_t>(
    std::span<const std::int32_t>, std::size_t, std::size_t);

template void conv_accumulate_row<float, float>(
    float*, std::size_t, std::size_t, const float* const*, std::size_t,
    std::size_t, const float*, std::size_t);
template void conv_accumulate_row<std::int32_t, std::int64_t>(
    std::int64_t*, std::size_t, std::size_t, const std::int32_t* const*,
    std::size_t, std::size_t, const std::int32_t*, std::size_t);
template void conv_accumulate_row<std::int32_t, std::int32_t>(
    std::int32_t*, std::size_t, std::size_t, const std::int32_t* const*,
    std::size_t, std::size_t, const std::int32_t*, std::size_t);

template void inner_product_accumulate<float, float>(
    float*, std::size_t, const float*, std::size_t, const float*, std::size_t);
template void inner_product_accumulate<std::int32_t, std::int64_t>(
    std::int64_t*, std::size_t, const std::int32_t*, std::size_t,
    const std::int32_t*, std::size_t);

}  // namespace condor::nn::kernels
