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
//   fixed8  datapath: T = std::int32_t, Acc = std::int32_t  (widened int32;
//                     convolution only)
//
// The fixed8 convolution requires every tap code and weight to fit int16
// (fixed8 codes lie in [-128, 127]). Its SIMD levels multiply two taps per
// instruction: the int32 weights of taps t and t+1 are interleaved on the
// fly into int16 pairs, the matching input codes are broadcast as one pair,
// and pmaddwd sums both products into each int32 lane.
//
// The fixed8 inner product stores its weights at the datapath's own width
// instead (fixed8_inner_product_accumulate below): 8-bit (w[h][j],
// w[h+1][j]) row pairs in 64-output blocks, so each row pair is one
// sign-extending load and one pmaddwd per vector, against accumulators held
// in registers across the whole input sweep.
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

#include "common/status.hpp"

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
/// Instantiated for float and fixed16; fixed8 has its own narrow kernel.
template <typename T, typename Acc>
void inner_product_accumulate(Acc* acc, std::size_t out_count,
                              const T* x, std::size_t in_count,
                              const T* packed, std::size_t packed_stride);

/// Packs row-major (out, in) fixed8 weight codes into the 8-bit row-pair
/// blocks fixed8_inner_product_accumulate reads. Block b holds outputs
/// [64b, 64b + width_b), width_b = 64 except for the last block, whose
/// width is the remaining output count rounded up to 16. For each row pair
/// (h, h+1), h even, a block holds width_b consecutive (w[h][j], w[h+1][j])
/// int8 pairs; the blocks follow each other, each row pair at a stride of
/// 2 * width_b bytes. An odd last row pairs with a zero weight, and the
/// padding lanes past out_count hold zero weights. Fails with an internal
/// error when a code lies outside int8 (the codes come from a fixed8
/// quantization; nothing is wrapped).
Result<std::vector<std::int8_t>> pack_fixed8_inner_product(
    std::span<const std::int32_t> codes, std::size_t out_count,
    std::size_t in_count);

/// Inverse of pack_fixed8_inner_product: the canonical (out, in) codes.
std::vector<std::int32_t> unpack_fixed8_inner_product(
    std::span<const std::int8_t> blocks, std::size_t out_count,
    std::size_t in_count);

/// fixed8 inner-product update over `out_count` outputs from the blocks of
/// pack_fixed8_inner_product:
///
///   acc[j] += x[h] * w[j][h]   for h in [0, in_count), j in [0, out_count)
///
/// `acc` must be seeded by the caller. Integer sums are exact, so the
/// result does not depend on the add order. Precondition: the x codes fit
/// int16. The odd last row's partner code is zero, whatever its padding
/// weight, and no lane past out_count is read or written in `acc`.
void fixed8_inner_product_accumulate(std::int32_t* acc, std::size_t out_count,
                                     const std::int32_t* x,
                                     std::size_t in_count,
                                     const std::int8_t* blocks);

}  // namespace condor::nn::kernels
