// AVX-512 variants of the packed MAC microkernels and the quantize kernel,
// compiled with -mavx512f -mavx512bw -ffp-contract=off (BW for the 512-bit
// vpmaddwd and 16-bit blends of the fixed8 kernels; no VL dependence). Same
// structure and bit-exactness contract as the AVX2 unit; the wider registers
// double the j-lane count per MAC. Getter returns nullptr when the
// toolchain cannot target AVX-512 F and BW.
#include "nn/kernels_simd_internal.hpp"

#include <algorithm>

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>
#endif

namespace condor::nn::kernels::detail {

#if defined(__AVX512F__) && defined(__AVX512BW__)
namespace {

/// float datapath: 16 lanes, multiply then add (two roundings).
struct F32Avx512 {
  using Elem = float;
  using Acc = float;
  using AccVec = __m512;
  using XVec = __m512;
  static constexpr std::size_t kWidth = 16;
  static AccVec load_acc(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store_acc(float* p, AccVec v) noexcept { _mm512_storeu_ps(p, v); }
  static XVec broadcast(float x) noexcept { return _mm512_set1_ps(x); }
  static AccVec load_weights(const float* p) noexcept {
    return _mm512_loadu_ps(p);
  }
  static AccVec mac(AccVec a, AccVec w, XVec x) noexcept {
    return _mm512_add_ps(a, _mm512_mul_ps(w, x));
  }
};

/// fixed16 datapath: widening 32x32->64 multiply, int64 accumulation,
/// 8 lanes.
struct I64Avx512 {
  using Elem = std::int32_t;
  using Acc = std::int64_t;
  using AccVec = __m512i;
  using XVec = __m512i;
  static constexpr std::size_t kWidth = 8;
  static AccVec load_acc(const Acc* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void store_acc(Acc* p, AccVec v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static XVec broadcast(Elem x) noexcept { return _mm512_set1_epi64(x); }
  static AccVec load_weights(const Elem* p) noexcept {
    return _mm512_cvtepi32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static AccVec mac(AccVec a, AccVec w, XVec x) noexcept {
    return _mm512_add_epi64(a, _mm512_mul_epi32(w, x));
  }
};

/// fixed8 datapath: int16 tap pairs through vpmaddwd (see
/// fixed8_conv_tile), 16 int32 lanes, tails through mask registers.
struct Fixed8Avx512 {
  using Vec = __m512i;
  using Mask = __mmask16;
  static constexpr std::size_t kWidth = 16;
  static Mask tail_mask(std::size_t n) noexcept {
    return static_cast<Mask>((1U << n) - 1U);
  }
  static Vec load(const std::int32_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static Vec load(const std::int32_t* p, Mask m) noexcept {
    return _mm512_maskz_loadu_epi32(m, p);
  }
  static void store(std::int32_t* p, Vec v) noexcept {
    _mm512_storeu_si512(p, v);
  }
  static void store(std::int32_t* p, Vec v, Mask m) noexcept {
    _mm512_mask_storeu_epi32(p, m, v);
  }
  static Vec pair(Vec lo, Vec hi) noexcept {
    return _mm512_mask_blend_epi16(0xAAAAAAAAU, lo, _mm512_slli_epi32(hi, 16));
  }
  static Vec splat(std::int32_t xp) noexcept { return _mm512_set1_epi32(xp); }
  static Vec madd(Vec acc, Vec w, Vec x) noexcept {
    return _mm512_add_epi32(acc, _mm512_madd_epi16(w, x));
  }
};

void conv_f32(float* acc, std::size_t oc_count, std::size_t out_w,
              const float* const* taps, std::size_t tap_count,
              std::size_t x_stride, const float* packed,
              std::size_t packed_stride) {
  conv_row_impl<F32Avx512>(acc, oc_count, out_w, taps, tap_count, x_stride,
                           packed, packed_stride);
}
void conv_i32_i64(std::int64_t* acc, std::size_t oc_count, std::size_t out_w,
                  const std::int32_t* const* taps, std::size_t tap_count,
                  std::size_t x_stride, const std::int32_t* packed,
                  std::size_t packed_stride) {
  conv_row_impl<I64Avx512>(acc, oc_count, out_w, taps, tap_count, x_stride,
                           packed, packed_stride);
}
void conv_i32_i32(std::int32_t* acc, std::size_t oc_count, std::size_t out_w,
                  const std::int32_t* const* taps, std::size_t tap_count,
                  std::size_t x_stride, const std::int32_t* packed,
                  std::size_t packed_stride) {
  fixed8_conv_row_impl<Fixed8Avx512>(acc, oc_count, out_w, taps, tap_count,
                                     x_stride, packed, packed_stride);
}
void ip_f32(float* acc, std::size_t out_count, const float* x,
            std::size_t in_count, const float* packed,
            std::size_t packed_stride) {
  inner_product_impl<F32Avx512>(acc, out_count, x, in_count, packed,
                                packed_stride);
}
void ip_i32_i64(std::int64_t* acc, std::size_t out_count,
                const std::int32_t* x, std::size_t in_count,
                const std::int32_t* packed, std::size_t packed_stride) {
  inner_product_impl<I64Avx512>(acc, out_count, x, in_count, packed,
                                packed_stride);
}
void ip_i32_i32(std::int32_t* acc, std::size_t out_count,
                const std::int32_t* x, std::size_t in_count,
                const std::int32_t* packed, std::size_t packed_stride) {
  fixed8_inner_product_impl<Fixed8Avx512>(acc, out_count, x, in_count,
                                          packed, packed_stride);
}

/// quantize_scaled on 8 lanes: multiply by the power of two, add -0.5
/// where d < 0 and +0.5 elsewhere (-0.0 included, as in the scalar step),
/// zero NaN lanes, clamp, truncate.
__m256i quantize8(__m256 v, __m512d scale, __m512d lo, __m512d hi) noexcept {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d d = _mm512_mul_pd(_mm512_cvtps_pd(v), scale);
  const __mmask8 neg = _mm512_cmp_pd_mask(d, _mm512_setzero_pd(), _CMP_LT_OQ);
  const __mmask8 ord = _mm512_cmp_pd_mask(d, d, _CMP_ORD_Q);
  const __m512d r = _mm512_maskz_mov_pd(
      ord, _mm512_mask_sub_pd(_mm512_add_pd(d, half), neg, d, half));
  return _mm512_cvttpd_epi32(_mm512_min_pd(_mm512_max_pd(r, lo), hi));
}

float quantize(const float* values, std::size_t count, double scale,
               double min_code, double max_code, std::int32_t* codes) {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d lo = _mm512_set1_pd(min_code);
  const __m512d hi = _mm512_set1_pd(max_code);
  // maxps returns its second operand when the first is NaN: NaN skipped.
  __m512 max_abs = _mm512_setzero_ps();
  for (std::size_t i = 0; i < count; i += 16) {
    const std::size_t n = std::min<std::size_t>(16, count - i);
    const __mmask16 mask =
        n == 16 ? static_cast<__mmask16>(0xFFFFU) : Fixed8Avx512::tail_mask(n);
    const __m512 v = _mm512_maskz_loadu_ps(mask, values + i);
    max_abs = _mm512_max_ps(_mm512_abs_ps(v), max_abs);
    if (codes != nullptr) {
      const __m256 upper =
          _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
      const __m512i c = _mm512_inserti64x4(
          _mm512_castsi256_si512(
              quantize8(_mm512_castps512_ps256(v), vscale, lo, hi)),
          quantize8(upper, vscale, lo, hi), 1);
      _mm512_mask_storeu_epi32(codes + i, mask, c);
    }
  }
  return _mm512_reduce_max_ps(max_abs);
}

}  // namespace

const IsaKernels* avx512_kernels() noexcept {
  static const IsaKernels kTable = {
      &conv_f32, &conv_i32_i64, &conv_i32_i32, &ip_f32,
      &ip_i32_i64, &ip_i32_i32, &quantize,
  };
  return &kTable;
}

#else  // !(defined(__AVX512F__) && defined(__AVX512BW__))

const IsaKernels* avx512_kernels() noexcept { return nullptr; }

#endif

}  // namespace condor::nn::kernels::detail
