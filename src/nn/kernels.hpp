// Packed, vectorization-friendly MAC microkernels shared by the golden CPU
// reference and the dataflow PE modules.
//
// The scalar loops both engines used previously walk the weight tensor in
// its storage order (oc, ic, ky, kx) with an index multiply per access and
// an oc-outer accumulator stride of a whole output map — a pattern the
// auto-vectorizer cannot turn into contiguous SIMD loads. These kernels
// instead operate on a one-time repack of the weights that puts the output
// channel innermost:
//
//   convolution    (oc, ic, ky, kx)  ->  (ic, ky, kx, oc)
//   inner product  (out, in)         ->  (in, out)
//
// so the hot loop is a contiguous `acc[j] += w[j] * x` sweep over a register
// tile of per-output-channel accumulators (the weight-reshaping-for-SIMD
// trick of Caffeinated FPGAs / fpgaConvNet applied to the host kernels).
//
// The kernels are templated over the element type `T` and the accumulator
// type `Acc` so the same loops serve both datapaths (see nn/numeric.hpp):
//
//   float   datapath: T = float,        Acc = float
//   fixed16 datapath: T = std::int32_t, Acc = std::int64_t  (codes; a
//                     16x16-bit product needs 30 bits, int32 would overflow
//                     mid-sum)
//   fixed8  datapath: T = std::int32_t, Acc = std::int32_t  (widened int32)
//
// The fixed8 instantiation requires every tap code and weight to fit int16
// (fixed8 codes lie in [-128, 127]). Its SIMD levels multiply two taps per
// instruction: the weights of taps t and t+1 (rows h and h+1 of the inner
// product) are interleaved on the fly into int16 pairs, the matching input
// codes are broadcast as one pair, and pmaddwd sums both products into each
// int32 lane. The packed layout is the same for every datapath.
//
// Only these combinations are instantiated (explicitly, in kernels.cpp,
// which is compiled -O3 — the templates have no inline definitions here so
// every caller links against the optimized instantiations).
//
// Bit-exactness: for every float output element the accumulation chain is
// unchanged — the bias seed followed by the (ic, ky, kx)-ordered adds. Only
// the iteration order *across* independent output channels moves, which
// cannot alter any individual float result. Integer accumulation is exact,
// so for the fixed datapaths any order yields the same sum. Both engines
// call these same functions, so they stay bit-identical to each other by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace condor::nn::kernels {

/// Repacks row-major (oc, ic, ky, kx) convolution weights into the packed
/// (ic, ky, kx, oc) layout. `weights.size()` must equal
/// `out_channels * in_channels * window_h * window_w`.
template <typename T>
std::vector<T> pack_conv_weights(std::span<const T> weights,
                                 std::size_t out_channels,
                                 std::size_t in_channels,
                                 std::size_t window_h,
                                 std::size_t window_w);

/// Inverse of pack_conv_weights: packed (ic, ky, kx, oc) back to the
/// canonical (oc, ic, ky, kx) storage order.
template <typename T>
std::vector<T> unpack_conv_weights(std::span<const T> packed,
                                   std::size_t out_channels,
                                   std::size_t in_channels,
                                   std::size_t window_h,
                                   std::size_t window_w);

/// Repacks row-major (out, in) inner-product weights into the transposed
/// (in, out) layout (out contiguous).
template <typename T>
std::vector<T> pack_inner_product_weights(std::span<const T> weights,
                                          std::size_t out_count,
                                          std::size_t in_count);

/// Inverse of pack_inner_product_weights.
template <typename T>
std::vector<T> unpack_inner_product_weights(std::span<const T> packed,
                                            std::size_t out_count,
                                            std::size_t in_count);

/// One (input-channel, output-row) convolution update over a tile of
/// `oc_count` output channels:
///
///   acc[ox * oc_count + j] += taps[t][ox * x_stride] * packed[t * packed_stride + j]
///
/// for every output column ox in [0, out_w) and window tap t in
/// [0, tap_count), with t enumerating (ky, kx) in lexicographic order.
/// `taps[t]` points at the tap's window value for ox = 0; consecutive
/// columns are `x_stride` elements apart (the convolution stride: both
/// engines read raw rows of the zero-padded input frame).
/// `packed` points at the (possibly oc-sliced) packed weight block of the
/// current input channel; rows of consecutive taps are `packed_stride`
/// apart (the full out_channels when `oc_count` is a lane's slice).
///
/// The j-loop is contiguous in both `acc` and `packed`, so it vectorizes;
/// per output element the adds still arrive in (ky, kx) order. Products
/// are formed in `Acc` (widening first for the integer datapaths).
/// Precondition for T = Acc = int32 (fixed8): tap codes and weights fit
/// int16.
template <typename T, typename Acc>
void conv_accumulate_row(Acc* acc, std::size_t oc_count, std::size_t out_w,
                         const T* const* taps, std::size_t tap_count,
                         std::size_t x_stride, const T* packed,
                         std::size_t packed_stride);

/// Inner-product update over a tile of `out_count` outputs:
///
///   acc[j] += x[h] * packed[h * packed_stride + j]   for h in [0, in_count)
///
/// `acc` must be seeded (bias or zero) by the caller; adds arrive in
/// ascending-h order, matching the scalar row-dot-product chain exactly.
/// Precondition for T = Acc = int32 (fixed8): x and the weights fit int16.
template <typename T, typename Acc>
void inner_product_accumulate(Acc* acc, std::size_t out_count,
                              const T* x, std::size_t in_count,
                              const T* packed, std::size_t packed_stride);

}  // namespace condor::nn::kernels
