// Numeric datapath traits: the single definition of Condor's datapath
// scalar types and of the fixed-point arithmetic the quantized designs run.
//
// The paper's accelerator computes in single-precision float; the work it
// cites (Qiu et al., FPGA'16 [14]) shows dynamic-precision fixed point cuts
// bandwidth and resources with negligible accuracy impact. This header is
// the one mechanism shared by every consumer of that study:
//
//  * nn::QuantizedEngine (the software golden reference for fixed designs),
//  * the dataflow PE/datamover modules (the executable fixed datapath),
//  * the hw resource/timing presets (bytes per element),
//  * the HLS code generator and the CLI/report name strings.
//
// Both engines call the exact same quantize/round/realign helpers, so their
// rounding semantics are identical by construction — the foundation of the
// executor-vs-reference bit-exactness guarantee per DataType.
//
// Conventions of the fixed datapath (kFixed16 / kFixed8):
//  * every tensor ("blob") carries a dynamic per-blob Q-format chosen by
//    choose_format() — the binary point is placed so the largest magnitude
//    just fits, maximizing fractional resolution (after [14]);
//  * values are integer CODES: value = code * 2^-frac_bits. Codes of a
//    t-bit format lie in [-2^(t-1), 2^(t-1) - 1];
//  * rounding is round-half-away-from-zero, saturating at the format range;
//  * multiply-accumulate runs on raw codes in a widened integer
//    accumulator (int32 for fixed8, int64 for fixed16 — a 16x16-bit
//    product already needs 30 bits, so int32 would overflow mid-sum) at
//    scale weight_frac + input_frac; biases are realigned into that scale
//    (exact left shift, or half-away-rounded right shift);
//  * requantization happens at layer-pass boundaries over the full output
//    blob: dequantize the accumulator, apply the activation in float,
//    choose a fresh format for the blob, quantize back to codes.
//
// Scaling by 2^k is a multiply by exact_pow2(k), never a std::ldexp call:
// the power of two is exact, so the IEEE product is the correctly rounded
// x * 2^k — bit-identical to ldexp for every k the datapath produces.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "tensor/tensor.hpp"

namespace condor::nn {

enum class DataType { kFloat32, kFixed16, kFixed8 };

/// Canonical name ("float32", "fixed16", "fixed8") — the single source for
/// reports, JSON, and the CLI.
std::string_view to_string(DataType type) noexcept;

/// Inverse of to_string. Fails with kInvalidInput on unknown names.
Result<DataType> parse_data_type(std::string_view name);

/// Bytes per datapath element (4 / 2 / 1) — the single width source the hw
/// resource presets derive their element_bytes from.
std::size_t bytes_per_element(DataType type) noexcept;

/// Code width of a fixed type (16 / 8); 32 for float32 (the IEEE word).
int total_bits(DataType type) noexcept;

/// True for the fixed-point members.
bool is_fixed_point(DataType type) noexcept;

/// A signed fixed-point format: `total_bits` including sign, `frac_bits`
/// fractional bits (Qm.n with m = total - 1 - n integer bits).
struct FixedPointFormat {
  int total_bits = 16;
  int frac_bits = 12;

  [[nodiscard]] float resolution() const noexcept;  ///< 2^-frac
  [[nodiscard]] float max_value() const noexcept;   ///< largest representable
  [[nodiscard]] std::int32_t max_code() const noexcept;  ///< 2^(t-1) - 1
  [[nodiscard]] std::int32_t min_code() const noexcept;  ///< -2^(t-1)
};

/// 2^k as a double, assembled from the exponent field. Exact for every k in
/// [-1022, 1023] (the normal range), so multiplying by it equals
/// std::ldexp(x, k) bit for bit.
constexpr double exact_pow2(int k) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + k) << 52);
}

/// Quantizes `value` to an integer code: round-half-away-from-zero on the
/// scaled value, saturating at [min_code, max_code].
std::int32_t quantize_code(float value, const FixedPointFormat& format) noexcept;

/// code * 2^-frac_bits, computed in double and narrowed once (wide
/// accumulators exceed float's 24-bit mantissa; both engines must lose the
/// same bits at the same point). Inline: every boundary step of both
/// engines calls it once per element.
inline float dequantize_code(std::int64_t code, int frac_bits) noexcept {
  return static_cast<float>(static_cast<double>(code) * exact_pow2(-frac_bits));
}

/// Rounds to the nearest representable value, saturating at the format
/// range (quantize_code followed by dequantize_code).
float quantize_value(float value, const FixedPointFormat& format) noexcept;

/// Re-scales a code from `from_frac` to `to_frac` fractional bits: exact
/// left shift when gaining bits, half-away-rounded right shift when losing
/// them. Used to align bias codes with the accumulator scale.
std::int64_t realign_code(std::int64_t code, int from_frac, int to_frac) noexcept;

/// Dynamic-precision format selection (after [14]): the largest frac_bits
/// such that every |value|, once rounded, still fits the code range — the
/// binary point sits as low as the data allows. All-zero inputs get the
/// all-fractional format. (Direct fit test, not a log2 estimate: magnitudes
/// just below a power of two, exact powers of two and denormal-scale inputs
/// all land on the maximal non-saturating format.)
FixedPointFormat choose_format(std::span<const float> values,
                               int total_bits) noexcept;

/// Quantizes every element in place with a per-tensor dynamic format.
FixedPointFormat quantize_tensor(Tensor& tensor, int total_bits) noexcept;

/// Quantizes a float span into integer codes with a freshly chosen dynamic
/// format (resizes `codes`); the scale 2^frac is computed once per blob.
/// Returns the format.
FixedPointFormat quantize_span(std::span<const float> values, int total_bits,
                               std::vector<std::int32_t>& codes);

}  // namespace condor::nn
