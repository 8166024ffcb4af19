// AVX2 variants of the packed MAC microkernels and the quantize kernel.
// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off
// (see src/nn/CMakeLists.txt): the ISA flags gate the intrinsics,
// contraction stays off so the float multiply-then-add keeps the scalar
// kernels' two-rounding semantics (FMA fusion would break cross-level byte
// equality). When the toolchain cannot target AVX2 (non-x86, missing flag
// support) the table getter returns nullptr and dispatch falls back to
// scalar.
#include "nn/kernels_simd_internal.hpp"

#include <algorithm>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace condor::nn::kernels::detail {

#if defined(__AVX2__)
namespace {

/// float datapath: 8 lanes, multiply then add (two roundings, matching the
/// scalar chain exactly).
struct F32Avx2 {
  using Elem = float;
  using Acc = float;
  using AccVec = __m256;
  using XVec = __m256;
  static constexpr std::size_t kWidth = 8;
  static AccVec load_acc(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static void store_acc(float* p, AccVec v) noexcept { _mm256_storeu_ps(p, v); }
  static XVec broadcast(float x) noexcept { return _mm256_set1_ps(x); }
  static AccVec load_weights(const float* p) noexcept {
    return _mm256_loadu_ps(p);
  }
  static AccVec mac(AccVec a, AccVec w, XVec x) noexcept {
    return _mm256_add_ps(a, _mm256_mul_ps(w, x));
  }
};

/// fixed16 datapath: int32 codes, widening 32x32->64 multiply
/// (_mm256_mul_epi32 sign-extends the low halves of each 64-bit lane — the
/// weights arrive sign-extended via cvtepi32_epi64, the broadcast code fits
/// int32), exact int64 accumulation. 4 lanes.
struct I64Avx2 {
  using Elem = std::int32_t;
  using Acc = std::int64_t;
  using AccVec = __m256i;
  using XVec = __m256i;
  static constexpr std::size_t kWidth = 4;
  static AccVec load_acc(const Acc* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_acc(Acc* p, AccVec v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static XVec broadcast(Elem x) noexcept { return _mm256_set1_epi64x(x); }
  static AccVec load_weights(const Elem* p) noexcept {
    return _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static AccVec mac(AccVec a, AccVec w, XVec x) noexcept {
    return _mm256_add_epi64(a, _mm256_mul_epi32(w, x));
  }
};

/// fixed8 datapath: int16 tap and row pairs through pmaddwd (see
/// fixed8_conv_tile and fixed8_ip_block), 8 int32 lanes, tails through
/// vpmaskmovd.
struct Fixed8Avx2 {
  using Vec = __m256i;
  using Mask = __m256i;
  static constexpr std::size_t kWidth = 8;
  static Mask tail_mask(std::size_t n) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static Vec load(const std::int32_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec load(const std::int32_t* p, Mask m) noexcept {
    return _mm256_maskload_epi32(p, m);
  }
  static void store(std::int32_t* p, Vec v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store(std::int32_t* p, Vec v, Mask m) noexcept {
    _mm256_maskstore_epi32(p, m, v);
  }
  static Vec pair(Vec lo, Vec hi) noexcept {
    return _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16), 0xAA);
  }
  static Vec load_pairs(const std::int8_t* p) noexcept {
    return _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Vec splat(std::int32_t xp) noexcept { return _mm256_set1_epi32(xp); }
  static Vec madd(Vec acc, Vec w, Vec x) noexcept {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(w, x));
  }
};

void conv_f32(float* acc, std::size_t oc_count, std::size_t out_w,
              const float* const* taps, std::size_t tap_count,
              std::size_t x_stride, const float* packed,
              std::size_t packed_stride) {
  conv_row_impl<F32Avx2>(acc, oc_count, out_w, taps, tap_count, x_stride,
                         packed, packed_stride);
}
void conv_i32_i64(std::int64_t* acc, std::size_t oc_count, std::size_t out_w,
                  const std::int32_t* const* taps, std::size_t tap_count,
                  std::size_t x_stride, const std::int32_t* packed,
                  std::size_t packed_stride) {
  conv_row_impl<I64Avx2>(acc, oc_count, out_w, taps, tap_count, x_stride,
                         packed, packed_stride);
}
void conv_i32_i32(std::int32_t* acc, std::size_t oc_count, std::size_t out_w,
                  const std::int32_t* const* taps, std::size_t tap_count,
                  std::size_t x_stride, const std::int32_t* packed,
                  std::size_t packed_stride) {
  fixed8_conv_row_impl<Fixed8Avx2>(acc, oc_count, out_w, taps, tap_count,
                                   x_stride, packed, packed_stride);
}
void ip_f32(float* acc, std::size_t out_count, const float* x,
            std::size_t in_count, const float* packed,
            std::size_t packed_stride) {
  inner_product_impl<F32Avx2>(acc, out_count, x, in_count, packed,
                              packed_stride);
}
void ip_i32_i64(std::int64_t* acc, std::size_t out_count,
                const std::int32_t* x, std::size_t in_count,
                const std::int32_t* packed, std::size_t packed_stride) {
  inner_product_impl<I64Avx2>(acc, out_count, x, in_count, packed,
                              packed_stride);
}
void ip_fixed8(std::int32_t* acc, std::size_t out_count, const std::int32_t* x,
               std::size_t in_count, const std::int8_t* blocks) {
  fixed8_inner_product_impl<Fixed8Avx2>(acc, out_count, x, in_count, blocks);
}

/// quantize_scaled on 4 lanes: multiply by the power of two, add -0.5
/// where d < 0 and +0.5 elsewhere (-0.0 included, as in the scalar step),
/// zero NaN lanes, clamp, truncate.
__m128i quantize4(__m128 v, __m256d scale, __m256d lo, __m256d hi) noexcept {
  const __m256d d = _mm256_mul_pd(_mm256_cvtps_pd(v), scale);
  const __m256d half = _mm256_blendv_pd(
      _mm256_set1_pd(0.5), _mm256_set1_pd(-0.5),
      _mm256_cmp_pd(d, _mm256_setzero_pd(), _CMP_LT_OQ));
  const __m256d r = _mm256_and_pd(_mm256_add_pd(d, half),
                                  _mm256_cmp_pd(d, d, _CMP_ORD_Q));
  return _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(r, lo), hi));
}

float quantize(const float* values, std::size_t count, double scale,
               double min_code, double max_code, std::int32_t* codes) {
  const __m256 sign = _mm256_set1_ps(-0.0F);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d lo = _mm256_set1_pd(min_code);
  const __m256d hi = _mm256_set1_pd(max_code);
  // maxps returns its second operand when the first is NaN: NaN skipped.
  __m256 max_abs = _mm256_setzero_ps();
  for (std::size_t i = 0; i < count; i += 8) {
    const std::size_t n = std::min<std::size_t>(8, count - i);
    const __m256i mask = Fixed8Avx2::tail_mask(n);
    const __m256 v = n == 8 ? _mm256_loadu_ps(values + i)
                            : _mm256_maskload_ps(values + i, mask);
    max_abs = _mm256_max_ps(_mm256_andnot_ps(sign, v), max_abs);
    if (codes != nullptr) {
      const __m256i c = _mm256_set_m128i(
          quantize4(_mm256_extractf128_ps(v, 1), vscale, lo, hi),
          quantize4(_mm256_castps256_ps128(v), vscale, lo, hi));
      Fixed8Avx2::store(codes + i, c, mask);
    }
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(max_abs),
                        _mm256_extractf128_ps(max_abs, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return _mm_cvtss_f32(m);
}

}  // namespace

const IsaKernels* avx2_kernels() noexcept {
  static const IsaKernels kTable = {
      &conv_f32, &conv_i32_i64, &conv_i32_i32, &ip_f32,
      &ip_i32_i64, &ip_fixed8, &quantize,
  };
  return &kTable;
}

#else  // !defined(__AVX2__)

const IsaKernels* avx2_kernels() noexcept { return nullptr; }

#endif

}  // namespace condor::nn::kernels::detail
