#include "nn/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace condor::nn {
namespace {

// Rounds a scaled value half away from zero in the double domain:
// floor(x + 0.5) for x >= 0, ceil(x - 0.5) below. Double holds every int32
// code and every float input times 2^30 exactly, so the tie test itself is
// exact. Truncating the shifted value is that floor/ceil, and every double
// of magnitude >= 2^52 is already integral, so the int64 round trip below
// 2^62 replaces the two libm calls without changing a result (a zero may
// come back unsigned, which no caller can observe; NaN stays NaN).
double round_half_away(double scaled) noexcept {
  const double shifted = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
  constexpr double kIntegral = exact_pow2(62);
  return std::abs(shifted) < kIntegral
             ? static_cast<double>(static_cast<std::int64_t>(shifted))
             : shifted;
}

/// The one quantization step behind quantize_code and quantize_span:
/// `value` times the exact power of two `scale`, rounded, saturated.
std::int32_t quantize_scaled(float value, double scale, double min_code,
                             double max_code) noexcept {
  const double rounded = round_half_away(static_cast<double>(value) * scale);
  return static_cast<std::int32_t>(std::clamp(rounded, min_code, max_code));
}

}  // namespace

std::string_view to_string(DataType type) noexcept {
  switch (type) {
    case DataType::kFloat32:
      return "float32";
    case DataType::kFixed16:
      return "fixed16";
    case DataType::kFixed8:
      return "fixed8";
  }
  return "unknown";
}

Result<DataType> parse_data_type(std::string_view name) {
  if (name == "float32") return DataType::kFloat32;
  if (name == "fixed16") return DataType::kFixed16;
  if (name == "fixed8") return DataType::kFixed8;
  return invalid_input("unknown data type '" + std::string(name) +
                       "' (expected float32, fixed16 or fixed8)");
}

std::size_t bytes_per_element(DataType type) noexcept {
  switch (type) {
    case DataType::kFloat32:
      return 4;
    case DataType::kFixed16:
      return 2;
    case DataType::kFixed8:
      return 1;
  }
  return 4;
}

int total_bits(DataType type) noexcept {
  switch (type) {
    case DataType::kFloat32:
      return 32;
    case DataType::kFixed16:
      return 16;
    case DataType::kFixed8:
      return 8;
  }
  return 32;
}

bool is_fixed_point(DataType type) noexcept {
  return type != DataType::kFloat32;
}

float FixedPointFormat::resolution() const noexcept {
  return std::ldexp(1.0F, -frac_bits);
}

float FixedPointFormat::max_value() const noexcept {
  return static_cast<float>(std::ldexp(static_cast<double>(max_code()), -frac_bits));
}

std::int32_t FixedPointFormat::max_code() const noexcept {
  return static_cast<std::int32_t>((std::int64_t{1} << (total_bits - 1)) - 1);
}

std::int32_t FixedPointFormat::min_code() const noexcept {
  return static_cast<std::int32_t>(-(std::int64_t{1} << (total_bits - 1)));
}

std::int32_t quantize_code(float value, const FixedPointFormat& format) noexcept {
  return quantize_scaled(value, exact_pow2(format.frac_bits),
                         static_cast<double>(format.min_code()),
                         static_cast<double>(format.max_code()));
}

float quantize_value(float value, const FixedPointFormat& format) noexcept {
  return dequantize_code(quantize_code(value, format), format.frac_bits);
}

std::int64_t realign_code(std::int64_t code, int from_frac, int to_frac) noexcept {
  if (to_frac >= from_frac) {
    return code << (to_frac - from_frac);
  }
  // Losing bits: round half away from zero on the dropped fraction. The
  // magnitudes involved (weights/bias codes) fit double exactly.
  return static_cast<std::int64_t>(round_half_away(
      static_cast<double>(code) * exact_pow2(to_frac - from_frac)));
}

FixedPointFormat choose_format(std::span<const float> values,
                               int total_bits) noexcept {
  float max_abs = 0.0F;
  for (float v : values) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  FixedPointFormat format{total_bits, total_bits - 1};
  if (max_abs == 0.0F) {
    return format;  // all-fractional: zeros fit any placement
  }
  // Direct fit test: lower the binary point until the rounded max magnitude
  // no longer saturates. Starting all-fractional and walking down visits at
  // most total_bits placements; each test mirrors quantize_code exactly.
  const double max_code = static_cast<double>(format.max_code());
  while (format.frac_bits > 0 &&
         round_half_away(static_cast<double>(max_abs) *
                         exact_pow2(format.frac_bits)) > max_code) {
    --format.frac_bits;
  }
  return format;
}

FixedPointFormat quantize_tensor(Tensor& tensor, int total_bits) noexcept {
  const FixedPointFormat format = choose_format(tensor.data(), total_bits);
  for (float& v : tensor.data()) {
    v = quantize_value(v, format);
  }
  return format;
}

FixedPointFormat quantize_span(std::span<const float> values, int total_bits,
                               std::vector<std::int32_t>& codes) {
  const FixedPointFormat format = choose_format(values, total_bits);
  const double scale = exact_pow2(format.frac_bits);
  const auto min_code = static_cast<double>(format.min_code());
  const auto max_code = static_cast<double>(format.max_code());
  codes.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    codes[i] = quantize_scaled(values[i], scale, min_code, max_code);
  }
  return format;
}

}  // namespace condor::nn
