// Internals shared by the SIMD dispatch (kernels_simd.cpp), the scalar
// fallback (kernels.cpp), the numeric helpers (numeric.cpp) and the per-ISA
// translation units. Not part of the public kernel API.
//
// Each ISA translation unit exports one IsaKernels table of seven raw entry
// points: the convolution kernel for each of the three type combinations,
// the float and fixed16 inner products, the fixed8 inner product on 8-bit
// row-pair blocks, and the layer-boundary quantize kernel. The getters
// return nullptr when the variant is not compiled in (non-x86 target, or
// the compiler lacks the flag). The generic register-blocked loop bodies
// live here as templates over a Traits type so the AVX2 and AVX-512 units
// share one implementation, each instantiated under its own per-file ISA
// flags.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "nn/kernels_simd.hpp"
#include "nn/numeric.hpp"

namespace condor::nn::kernels::detail {

/// The layer-boundary quantize kernel behind nn::choose_format and
/// nn::quantize_span (nn/numeric.hpp). Returns max |values[i]|, skipping
/// NaN elements as std::max does. When `codes` is non-null it also writes
/// codes[i] = quantize_scaled(values[i], scale, min_code, max_code).
using QuantizeFn = float (*)(const float* values, std::size_t count,
                             double scale, double min_code, double max_code,
                             std::int32_t* codes);

/// Rounds a scaled value half away from zero in the double domain:
/// floor(x + 0.5) for x >= 0, ceil(x - 0.5) below. Double holds every int32
/// code and every float input times 2^30 exactly, so the tie test itself is
/// exact. Truncating the shifted value is that floor/ceil, and every double
/// of magnitude >= 2^52 is already integral, so the int64 round trip below
/// 2^62 replaces the two libm calls without changing a result (a zero may
/// come back unsigned, which no caller can observe; NaN stays NaN).
inline double round_half_away(double scaled) noexcept {
  const double shifted = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  constexpr double kIntegral = exact_pow2(62);
  return std::abs(shifted) < kIntegral
             ? static_cast<double>(static_cast<std::int64_t>(shifted))
             : shifted;
}

/// The one quantization step of the fixed datapath: `value` times the exact
/// power of two `scale` (an exact product, so no FMA question arises),
/// rounded half away from zero, saturated to [min_code, max_code]. NaN maps
/// to code 0 (std::clamp passes NaN through, and casting it is undefined).
/// Every vector quantize kernel reproduces this bit for bit.
inline std::int32_t quantize_scaled(float value, double scale, double min_code,
                                    double max_code) noexcept {
  const double rounded = round_half_away(static_cast<double>(value) * scale);
  if (std::isnan(rounded)) {
    return 0;
  }
  return static_cast<std::int32_t>(std::clamp(rounded, min_code, max_code));
}

/// One ISA's kernel entry points.
struct IsaKernels {
  ConvRowFn<float, float> conv_f32 = nullptr;
  ConvRowFn<std::int32_t, std::int64_t> conv_i32_i64 = nullptr;
  ConvRowFn<std::int32_t, std::int32_t> conv_i32_i32 = nullptr;
  InnerProductFn<float, float> ip_f32 = nullptr;
  InnerProductFn<std::int32_t, std::int64_t> ip_i32_i64 = nullptr;
  Fixed8InnerProductFn ip_fixed8 = nullptr;
  QuantizeFn quantize = nullptr;
};

/// The portable fallback (kernels.cpp). Always fully populated.
const IsaKernels& scalar_kernels() noexcept;
/// The vector variants; nullptr when not compiled in.
const IsaKernels* avx2_kernels() noexcept;
const IsaKernels* avx512_kernels() noexcept;

/// Table-entry selection per (T, Acc) instantiation.
template <typename T, typename Acc>
constexpr ConvRowFn<T, Acc> conv_entry(const IsaKernels& k) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return k.conv_f32;
  } else if constexpr (std::is_same_v<Acc, std::int64_t>) {
    return k.conv_i32_i64;
  } else {
    return k.conv_i32_i32;
  }
}
template <typename T, typename Acc>
constexpr InnerProductFn<T, Acc> inner_product_entry(
    const IsaKernels& k) noexcept {
  if constexpr (std::is_same_v<T, float>) {
    return k.ip_f32;
  } else {
    static_assert(std::is_same_v<Acc, std::int64_t>);
    return k.ip_i32_i64;
  }
}

/// The live dispatch target of the kernels.hpp templates. The pointers are
/// plain atomics so the testing hook can swap levels mid-process; loads on
/// the hot path are relaxed (any published table is internally consistent —
/// every level computes bit-identical results).
struct ActiveKernels {
  ActiveKernels() noexcept;  // resolves the startup level (env + CPUID)

  void install(SimdLevel level) noexcept;

  std::atomic<SimdLevel> level{SimdLevel::kScalar};
  std::atomic<ConvRowFn<float, float>> conv_f32{nullptr};
  std::atomic<ConvRowFn<std::int32_t, std::int64_t>> conv_i32_i64{nullptr};
  std::atomic<ConvRowFn<std::int32_t, std::int32_t>> conv_i32_i32{nullptr};
  std::atomic<InnerProductFn<float, float>> ip_f32{nullptr};
  std::atomic<InnerProductFn<std::int32_t, std::int64_t>> ip_i32_i64{nullptr};
  std::atomic<Fixed8InnerProductFn> ip_fixed8{nullptr};
  std::atomic<QuantizeFn> quantize{nullptr};
};

ActiveKernels& active_kernels() noexcept;

template <typename T, typename Acc>
inline ConvRowFn<T, Acc> active_conv_row() noexcept {
  ActiveKernels& a = active_kernels();
  if constexpr (std::is_same_v<T, float>) {
    return a.conv_f32.load(std::memory_order_relaxed);
  } else if constexpr (std::is_same_v<Acc, std::int64_t>) {
    return a.conv_i32_i64.load(std::memory_order_relaxed);
  } else {
    return a.conv_i32_i32.load(std::memory_order_relaxed);
  }
}
template <typename T, typename Acc>
inline InnerProductFn<T, Acc> active_inner_product() noexcept {
  ActiveKernels& a = active_kernels();
  if constexpr (std::is_same_v<T, float>) {
    return a.ip_f32.load(std::memory_order_relaxed);
  } else {
    static_assert(std::is_same_v<Acc, std::int64_t>);
    return a.ip_i32_i64.load(std::memory_order_relaxed);
  }
}
inline Fixed8InnerProductFn active_fixed8_inner_product() noexcept {
  return active_kernels().ip_fixed8.load(std::memory_order_relaxed);
}

inline QuantizeFn active_quantize() noexcept {
  return active_kernels().quantize.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Generic register-blocked loop bodies, instantiated by each ISA unit with
// its own Traits (vector width, load/store/broadcast/mac on the ISA's
// registers). Traits::mac must multiply THEN add for the float combination
// (two roundings — see kernels_simd.hpp on contraction); integer math is
// exact either way.
//
// Vectorization is strictly across the output-channel index j. Per output
// element the adds arrive in ascending-t (respectively ascending-h) order,
// identical to the scalar kernels, so results are byte-equal by
// construction; only j-tail elements run the scalar sweep, which is the
// scalar kernel's own order.
// ---------------------------------------------------------------------------

template <typename Tr>
void conv_row_impl(typename Tr::Acc* acc, std::size_t oc_count,
                   std::size_t out_w, const typename Tr::Elem* const* taps,
                   std::size_t tap_count, std::size_t x_stride,
                   const typename Tr::Elem* packed,
                   std::size_t packed_stride) {
  using Acc = typename Tr::Acc;
  using Elem = typename Tr::Elem;
  using AccVec = typename Tr::AccVec;
  using XVec = typename Tr::XVec;
  constexpr std::size_t W = Tr::kWidth;

  std::size_t ox = 0;
  // 4-point x 2-vector register block: 8 accumulator registers stay live
  // across the whole tap loop, so each accumulator element moves through
  // memory once per (input channel, output row) instead of once per tap,
  // and each weight vector load is reused by 4 output points.
  for (; ox + 4 <= out_w; ox += 4) {
    Acc* const a0 = acc + (ox + 0) * oc_count;
    Acc* const a1 = acc + (ox + 1) * oc_count;
    Acc* const a2 = acc + (ox + 2) * oc_count;
    Acc* const a3 = acc + (ox + 3) * oc_count;
    std::size_t j = 0;
    for (; j + 2 * W <= oc_count; j += 2 * W) {
      AccVec v00 = Tr::load_acc(a0 + j);
      AccVec v01 = Tr::load_acc(a0 + j + W);
      AccVec v10 = Tr::load_acc(a1 + j);
      AccVec v11 = Tr::load_acc(a1 + j + W);
      AccVec v20 = Tr::load_acc(a2 + j);
      AccVec v21 = Tr::load_acc(a2 + j + W);
      AccVec v30 = Tr::load_acc(a3 + j);
      AccVec v31 = Tr::load_acc(a3 + j + W);
      for (std::size_t t = 0; t < tap_count; ++t) {
        const Elem* const row = taps[t];
        const Elem* const w = packed + t * packed_stride + j;
        const AccVec w0 = Tr::load_weights(w);
        const AccVec w1 = Tr::load_weights(w + W);
        const XVec x0 = Tr::broadcast(row[(ox + 0) * x_stride]);
        v00 = Tr::mac(v00, w0, x0);
        v01 = Tr::mac(v01, w1, x0);
        const XVec x1 = Tr::broadcast(row[(ox + 1) * x_stride]);
        v10 = Tr::mac(v10, w0, x1);
        v11 = Tr::mac(v11, w1, x1);
        const XVec x2 = Tr::broadcast(row[(ox + 2) * x_stride]);
        v20 = Tr::mac(v20, w0, x2);
        v21 = Tr::mac(v21, w1, x2);
        const XVec x3 = Tr::broadcast(row[(ox + 3) * x_stride]);
        v30 = Tr::mac(v30, w0, x3);
        v31 = Tr::mac(v31, w1, x3);
      }
      Tr::store_acc(a0 + j, v00);
      Tr::store_acc(a0 + j + W, v01);
      Tr::store_acc(a1 + j, v10);
      Tr::store_acc(a1 + j + W, v11);
      Tr::store_acc(a2 + j, v20);
      Tr::store_acc(a2 + j + W, v21);
      Tr::store_acc(a3 + j, v30);
      Tr::store_acc(a3 + j + W, v31);
    }
    for (; j + W <= oc_count; j += W) {
      AccVec v0 = Tr::load_acc(a0 + j);
      AccVec v1 = Tr::load_acc(a1 + j);
      AccVec v2 = Tr::load_acc(a2 + j);
      AccVec v3 = Tr::load_acc(a3 + j);
      for (std::size_t t = 0; t < tap_count; ++t) {
        const Elem* const row = taps[t];
        const AccVec w0 = Tr::load_weights(packed + t * packed_stride + j);
        v0 = Tr::mac(v0, w0, Tr::broadcast(row[(ox + 0) * x_stride]));
        v1 = Tr::mac(v1, w0, Tr::broadcast(row[(ox + 1) * x_stride]));
        v2 = Tr::mac(v2, w0, Tr::broadcast(row[(ox + 2) * x_stride]));
        v3 = Tr::mac(v3, w0, Tr::broadcast(row[(ox + 3) * x_stride]));
      }
      Tr::store_acc(a0 + j, v0);
      Tr::store_acc(a1 + j, v1);
      Tr::store_acc(a2 + j, v2);
      Tr::store_acc(a3 + j, v3);
    }
    if (j < oc_count) {
      for (std::size_t p = 0; p < 4; ++p) {
        Acc* const pa = acc + (ox + p) * oc_count;
        for (std::size_t t = 0; t < tap_count; ++t) {
          const Acc x = static_cast<Acc>(taps[t][(ox + p) * x_stride]);
          const Elem* const w = packed + t * packed_stride;
          for (std::size_t jj = j; jj < oc_count; ++jj) {
            pa[jj] += static_cast<Acc>(w[jj]) * x;
          }
        }
      }
    }
  }
  // Remaining output points one at a time.
  for (; ox < out_w; ++ox) {
    Acc* const pa = acc + ox * oc_count;
    std::size_t j = 0;
    for (; j + W <= oc_count; j += W) {
      AccVec v = Tr::load_acc(pa + j);
      for (std::size_t t = 0; t < tap_count; ++t) {
        v = Tr::mac(v, Tr::load_weights(packed + t * packed_stride + j),
                    Tr::broadcast(taps[t][ox * x_stride]));
      }
      Tr::store_acc(pa + j, v);
    }
    for (std::size_t t = 0; t < tap_count; ++t) {
      const Acc x = static_cast<Acc>(taps[t][ox * x_stride]);
      const Elem* const w = packed + t * packed_stride;
      for (std::size_t jj = j; jj < oc_count; ++jj) {
        pa[jj] += static_cast<Acc>(w[jj]) * x;
      }
    }
  }
}

template <typename Tr>
void inner_product_impl(typename Tr::Acc* acc, std::size_t out_count,
                        const typename Tr::Elem* x, std::size_t in_count,
                        const typename Tr::Elem* packed,
                        std::size_t packed_stride) {
  using Acc = typename Tr::Acc;
  using Elem = typename Tr::Elem;
  using AccVec = typename Tr::AccVec;
  using XVec = typename Tr::XVec;
  constexpr std::size_t W = Tr::kWidth;

  std::size_t j = 0;
  // 4-vector register block: the accumulators live in registers across the
  // whole input sweep; each x[h] broadcast feeds 4 weight-vector MACs.
  for (; j + 4 * W <= out_count; j += 4 * W) {
    AccVec v0 = Tr::load_acc(acc + j);
    AccVec v1 = Tr::load_acc(acc + j + W);
    AccVec v2 = Tr::load_acc(acc + j + 2 * W);
    AccVec v3 = Tr::load_acc(acc + j + 3 * W);
    for (std::size_t h = 0; h < in_count; ++h) {
      const XVec xv = Tr::broadcast(x[h]);
      const Elem* const w = packed + h * packed_stride + j;
      v0 = Tr::mac(v0, Tr::load_weights(w), xv);
      v1 = Tr::mac(v1, Tr::load_weights(w + W), xv);
      v2 = Tr::mac(v2, Tr::load_weights(w + 2 * W), xv);
      v3 = Tr::mac(v3, Tr::load_weights(w + 3 * W), xv);
    }
    Tr::store_acc(acc + j, v0);
    Tr::store_acc(acc + j + W, v1);
    Tr::store_acc(acc + j + 2 * W, v2);
    Tr::store_acc(acc + j + 3 * W, v3);
  }
  for (; j + W <= out_count; j += W) {
    AccVec v = Tr::load_acc(acc + j);
    for (std::size_t h = 0; h < in_count; ++h) {
      v = Tr::mac(v, Tr::load_weights(packed + h * packed_stride + j),
                  Tr::broadcast(x[h]));
    }
    Tr::store_acc(acc + j, v);
  }
  for (std::size_t h = 0; h < in_count; ++h) {
    const Acc xv = static_cast<Acc>(x[h]);
    const Elem* const w = packed + h * packed_stride;
    for (std::size_t jj = j; jj < out_count; ++jj) {
      acc[jj] += static_cast<Acc>(w[jj]) * xv;
    }
  }
}

// ---------------------------------------------------------------------------
// fixed8 datapath: two taps (or two input rows) per multiply.
//
// fixed8 codes fit int16, so the MAC runs on int16 pairs: one pmaddwd forms
// w_t * x_t + w_t+1 * x_t+1 in every int32 lane against the matching input
// codes broadcast as one (x_t, x_t+1) pair. The convolution (T = Acc =
// int32) interleaves the int32 weight lanes of taps t and t+1 of the
// unchanged packed layout on the fly; the inner product reads its weights
// already paired, as 8-bit (w[h][j], w[h+1][j]) row pairs that one
// sign-extending load widens into the int16 pairs. Integer sums are exact
// and wrap identically at any order, so every level stays byte-equal to
// scalar. An odd last tap or row pairs with a zero code. Output-channel
// tails run as masked vectors. Tr provides:
//
//   Vec, Mask, kWidth          int32 lanes per vector
//   tail_mask(n)               the first n <= kWidth lanes
//   load(p) / load(p, m)       plain / masked int32 loads (masked lanes 0)
//   store(p, v) / store(p, v, m)
//   pair(lo, hi)               int32 lanes -> int16 pairs (lo_k, hi_k)
//   load_pairs(p)              kWidth int8 pairs at p -> int16 pairs
//   splat(xp)                  broadcast one packed input pair
//   madd(acc, w, x)            acc + pmaddwd(w, x)
// ---------------------------------------------------------------------------

/// One (x_lo, x_hi) int16 input pair in a 32-bit word, low code first.
inline std::int32_t pack_code_pair(std::int32_t lo, std::int32_t hi) noexcept {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
      (static_cast<std::uint32_t>(hi) << 16));
}

/// Loads/stores vector k of a kVecs-wide tile; only the last vector of a
/// kTail tile is masked.
template <typename Tr, std::size_t kVecs, bool kTail>
inline typename Tr::Vec fixed8_load(const std::int32_t* p, std::size_t k,
                                    typename Tr::Mask tail) noexcept {
  if constexpr (kTail) {
    if (k + 1 == kVecs) {
      return Tr::load(p, tail);
    }
  }
  return Tr::load(p);
}
template <typename Tr, std::size_t kVecs, bool kTail>
inline void fixed8_store(std::int32_t* p, std::size_t k, typename Tr::Vec v,
                         typename Tr::Mask tail) noexcept {
  if constexpr (kTail) {
    if (k + 1 == kVecs) {
      Tr::store(p, v, tail);
      return;
    }
  }
  Tr::store(p, v);
}

/// kPoints output columns starting at `ox` x kVecs oc vectors starting at
/// `j`, accumulated over every tap with the accumulators held in registers.
template <typename Tr, std::size_t kPoints, std::size_t kVecs, bool kTail>
void fixed8_conv_tile(std::int32_t* acc, std::size_t oc_count, std::size_t ox,
                      std::size_t j, typename Tr::Mask tail,
                      const std::int32_t* const* taps, std::size_t tap_count,
                      std::size_t x_stride, const std::int32_t* packed,
                      std::size_t packed_stride) {
  using Vec = typename Tr::Vec;
  constexpr std::size_t W = Tr::kWidth;
  Vec v[kPoints][kVecs];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kPoints; ++p) {
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kVecs; ++k) {
      v[p][k] = fixed8_load<Tr, kVecs, kTail>(
          acc + (ox + p) * oc_count + j + k * W, k, tail);
    }
  }
  const std::size_t x0 = ox * x_stride;
  std::size_t t = 0;
  for (; t + 1 < tap_count; t += 2) {
    const std::int32_t* const w0 = packed + t * packed_stride + j;
    const std::int32_t* const w1 = w0 + packed_stride;
    Vec w[kVecs];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kVecs; ++k) {
      w[k] = Tr::pair(fixed8_load<Tr, kVecs, kTail>(w0 + k * W, k, tail),
                      fixed8_load<Tr, kVecs, kTail>(w1 + k * W, k, tail));
    }
    const std::int32_t* const r0 = taps[t] + x0;
    const std::int32_t* const r1 = taps[t + 1] + x0;
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kPoints; ++p) {
      const Vec x =
          Tr::splat(pack_code_pair(r0[p * x_stride], r1[p * x_stride]));
#pragma GCC unroll 4
      for (std::size_t k = 0; k < kVecs; ++k) {
        v[p][k] = Tr::madd(v[p][k], w[k], x);
      }
    }
  }
  if (t < tap_count) {
    const std::int32_t* const w0 = packed + t * packed_stride + j;
    Vec w[kVecs];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kVecs; ++k) {
      w[k] = fixed8_load<Tr, kVecs, kTail>(w0 + k * W, k, tail);
    }
    const std::int32_t* const r0 = taps[t] + x0;
#pragma GCC unroll 8
    for (std::size_t p = 0; p < kPoints; ++p) {
      const Vec x = Tr::splat(pack_code_pair(r0[p * x_stride], 0));
#pragma GCC unroll 4
      for (std::size_t k = 0; k < kVecs; ++k) {
        v[p][k] = Tr::madd(v[p][k], w[k], x);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kPoints; ++p) {
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kVecs; ++k) {
      fixed8_store<Tr, kVecs, kTail>(acc + (ox + p) * oc_count + j + k * W, k,
                                     v[p][k], tail);
    }
  }
}

/// Every oc vector of kPoints output columns: 2-vector register blocks,
/// then one tile for the remainder with its last vector masked.
template <typename Tr, std::size_t kPoints>
void fixed8_conv_points(std::int32_t* acc, std::size_t oc_count,
                        std::size_t ox, const std::int32_t* const* taps,
                        std::size_t tap_count, std::size_t x_stride,
                        const std::int32_t* packed, std::size_t packed_stride) {
  constexpr std::size_t W = Tr::kWidth;
  std::size_t j = 0;
  for (; j + 2 * W <= oc_count; j += 2 * W) {
    fixed8_conv_tile<Tr, kPoints, 2, false>(acc, oc_count, ox, j,
                                            Tr::tail_mask(0), taps, tap_count,
                                            x_stride, packed, packed_stride);
  }
  const std::size_t rest = oc_count - j;
  if (rest > W) {
    fixed8_conv_tile<Tr, kPoints, 2, true>(acc, oc_count, ox, j,
                                           Tr::tail_mask(rest - W), taps,
                                           tap_count, x_stride, packed,
                                           packed_stride);
  } else if (rest == W) {
    fixed8_conv_tile<Tr, kPoints, 1, false>(acc, oc_count, ox, j,
                                            Tr::tail_mask(0), taps, tap_count,
                                            x_stride, packed, packed_stride);
  } else if (rest > 0) {
    fixed8_conv_tile<Tr, kPoints, 1, true>(acc, oc_count, ox, j,
                                           Tr::tail_mask(rest), taps,
                                           tap_count, x_stride, packed,
                                           packed_stride);
  }
}

template <typename Tr>
void fixed8_conv_row_impl(std::int32_t* acc, std::size_t oc_count,
                          std::size_t out_w, const std::int32_t* const* taps,
                          std::size_t tap_count, std::size_t x_stride,
                          const std::int32_t* packed,
                          std::size_t packed_stride) {
  std::size_t ox = 0;
  for (; ox + 4 <= out_w; ox += 4) {
    fixed8_conv_points<Tr, 4>(acc, oc_count, ox, taps, tap_count, x_stride,
                              packed, packed_stride);
  }
  for (; ox < out_w; ++ox) {
    fixed8_conv_points<Tr, 1>(acc, oc_count, ox, taps, tap_count, x_stride,
                              packed, packed_stride);
  }
}

/// Outputs per fixed8 inner-product block, and the lane quantum the last,
/// narrower block rounds up to (nn/kernels.hpp, pack_fixed8_inner_product).
inline constexpr std::size_t kFixed8BlockOutputs = 64;
inline constexpr std::size_t kFixed8BlockQuantum = 16;

/// Lanes of the block that starts at output `first`.
inline std::size_t fixed8_block_width(std::size_t out_count,
                                      std::size_t first) noexcept {
  const std::size_t rest = out_count - first;
  return rest >= kFixed8BlockOutputs
             ? kFixed8BlockOutputs
             : (rest + kFixed8BlockQuantum - 1) / kFixed8BlockQuantum *
                   kFixed8BlockQuantum;
}

/// Byte offset of the block that starts at output `first`: every earlier
/// block is kFixed8BlockOutputs wide and holds one int8 pair per lane per
/// row pair.
inline std::size_t fixed8_block_offset(std::size_t first,
                                       std::size_t in_count) noexcept {
  return first * 2 * ((in_count + 1) / 2);
}

/// One block of kVecs vectors (64 or the narrower last block's lanes) over
/// every row pair, its accumulators held in registers from the first pair to
/// the last. `lanes` outputs are live; with kTail the accumulator loads and
/// stores are masked to them.
template <typename Tr, std::size_t kVecs, bool kTail>
void fixed8_ip_block(std::int32_t* acc, std::size_t lanes,
                     const std::int32_t* x, std::size_t in_count,
                     const std::int8_t* w) {
  using Vec = typename Tr::Vec;
  constexpr std::size_t W = Tr::kWidth;
  constexpr std::size_t kPairStride = 2 * kVecs * W;
  const auto live = [lanes](std::size_t k) {
    const std::size_t skip = k * Tr::kWidth;
    return Tr::tail_mask(
        lanes > skip ? std::min<std::size_t>(lanes - skip, Tr::kWidth) : 0);
  };
  Vec v[kVecs];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < kVecs; ++k) {
    if constexpr (kTail) {
      v[k] = Tr::load(acc + k * W, live(k));
    } else {
      v[k] = Tr::load(acc + k * W);
    }
  }
  std::size_t h = 0;
  for (; h + 1 < in_count; h += 2, w += kPairStride) {
    const Vec xv = Tr::splat(pack_code_pair(x[h], x[h + 1]));
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kVecs; ++k) {
      v[k] = Tr::madd(v[k], Tr::load_pairs(w + 2 * k * W), xv);
    }
  }
  if (h < in_count) {
    const Vec xv = Tr::splat(pack_code_pair(x[h], 0));
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kVecs; ++k) {
      v[k] = Tr::madd(v[k], Tr::load_pairs(w + 2 * k * W), xv);
    }
  }
#pragma GCC unroll 8
  for (std::size_t k = 0; k < kVecs; ++k) {
    if constexpr (kTail) {
      Tr::store(acc + k * W, v[k], live(k));
    } else {
      Tr::store(acc + k * W, v[k]);
    }
  }
}

/// The last block, `vecs` <= kVecs vectors wide. Its width is a multiple of
/// kFixed8BlockQuantum, so only those vector counts are instantiated.
template <typename Tr, std::size_t kVecs>
void fixed8_ip_last_block(std::size_t vecs, std::int32_t* acc,
                          std::size_t lanes, const std::int32_t* x,
                          std::size_t in_count, const std::int8_t* w) {
  static_assert(kFixed8BlockQuantum % Tr::kWidth == 0);
  constexpr std::size_t kStep = kFixed8BlockQuantum / Tr::kWidth;
  if constexpr (kVecs > kStep) {
    if (vecs < kVecs) {
      fixed8_ip_last_block<Tr, kVecs - kStep>(vecs, acc, lanes, x, in_count,
                                              w);
      return;
    }
  }
  fixed8_ip_block<Tr, kVecs, true>(acc, lanes, x, in_count, w);
}

/// Blocks outermost: each block's weights stream once, contiguously, while
/// its 64 accumulators stay in registers.
template <typename Tr>
void fixed8_inner_product_impl(std::int32_t* acc, std::size_t out_count,
                               const std::int32_t* x, std::size_t in_count,
                               const std::int8_t* blocks) {
  constexpr std::size_t kVecs = kFixed8BlockOutputs / Tr::kWidth;
  std::size_t first = 0;
  for (; first + kFixed8BlockOutputs <= out_count;
       first += kFixed8BlockOutputs) {
    fixed8_ip_block<Tr, kVecs, false>(
        acc + first, kFixed8BlockOutputs, x, in_count,
        blocks + fixed8_block_offset(first, in_count));
  }
  if (first < out_count) {
    fixed8_ip_last_block<Tr, kVecs>(
        fixed8_block_width(out_count, first) / Tr::kWidth, acc + first,
        out_count - first, x, in_count,
        blocks + fixed8_block_offset(first, in_count));
  }
}

}  // namespace condor::nn::kernels::detail
