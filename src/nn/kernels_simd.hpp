// Runtime SIMD dispatch for the packed MAC microkernels (nn/kernels.hpp).
//
// The shared `conv_accumulate_row` / `inner_product_accumulate` kernels, and
// the layer-boundary quantize kernel behind nn::choose_format and
// nn::quantize_span, are implemented at three ISA levels:
//
//   scalar   the portable `acc[j] += w[j] * x` sweeps in kernels.cpp
//            (compiled -O3; the baseline-ISA auto-vectorized fallback)
//   avx2     explicit 256-bit register-blocked variants (kernels_simd_avx2.cpp,
//            compiled -mavx2 -mfma per file)
//   avx512   512-bit variants (kernels_simd_avx512.cpp, -mavx512f -mavx512bw
//            per file; the level needs a CPU with both AVX512F and AVX512BW)
//
// The fixed8 (int32, int32) MAC kernels run two taps per pmaddwd on int16
// pairs (see nn/kernels.hpp); the float and fixed16 kernels run one tap
// per multiply. The quantize kernel fuses the max-abs scan with the
// per-element quantize_scaled step (exact power-of-two multiply, then a
// separate +-0.5 add, truncation, clamp; NaN maps to code 0).
//
// One level is selected once at startup: the `CONDOR_SIMD` environment
// variable (`scalar`, `avx2` or `avx512`) when set, clamped to what the CPU
// and the build actually support (CPUID via __builtin_cpu_supports);
// otherwise the widest available level. Every caller of the kernels.hpp
// templates — the golden reference, the dataflow PEs, the benches — goes
// through this dispatch, so the whole stack switches together.
//
// Bit-exactness across levels: the float vector variants vectorize ONLY
// across the independent output-channel `j` loop; each output element's
// accumulation chain (bias seed, then (ic, ky, kx)- or ascending-h-ordered
// multiply-then-add, one rounding per operation) is untouched. The SIMD
// translation units and the scalar fallback are compiled with
// -ffp-contract=off so no level fuses the multiply and the add into an FMA
// (a single-rounding contraction would break cross-level byte equality).
// Integer accumulation is exact at any order, which is what lets the fixed8
// kernels sum two taps before the add. kernel_dispatch_test proves byte
// equality of every compiled-in level against scalar, at the kernel and the
// full-executor level; quantization_test runs the quantize property tests
// at every level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace condor::nn::kernels {

/// ISA level of the microkernel implementations, ordered by width.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Canonical lowercase name ("scalar", "avx2", "avx512").
std::string_view to_string(SimdLevel level) noexcept;

/// Inverse of to_string; returns false on unknown names.
bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept;

/// Widest level that is both compiled into this binary and supported by
/// the executing CPU. kScalar is always available.
SimdLevel max_supported_simd_level() noexcept;

/// The level the kernels.hpp templates currently dispatch to. Resolved once
/// on first use: CONDOR_SIMD override (clamped to max_supported) when set,
/// otherwise max_supported.
SimdLevel active_simd_level() noexcept;

/// Redirects the dispatch to `level` (clamped to max_supported) and returns
/// the level actually installed. Test/bench hook for comparing levels
/// inside one process — production code never calls this; the environment
/// override exists for that.
SimdLevel set_active_simd_level_for_testing(SimdLevel level) noexcept;

/// Space-separated feature list of the executing CPU (e.g.
/// "sse2 sse4.2 avx avx2 fma avx512f"), recorded by the benches so
/// checked-in BENCH json stays interpretable across machines.
std::string cpu_feature_string();

/// Raw kernel signatures (mirroring the kernels.hpp templates).
template <typename T, typename Acc>
using ConvRowFn = void (*)(Acc* acc, std::size_t oc_count, std::size_t out_w,
                           const T* const* taps, std::size_t tap_count,
                           std::size_t x_stride, const T* packed,
                           std::size_t packed_stride);
template <typename T, typename Acc>
using InnerProductFn = void (*)(Acc* acc, std::size_t out_count, const T* x,
                                std::size_t in_count, const T* packed,
                                std::size_t packed_stride);

/// The kernel implementing `level`, or nullptr when that level is not
/// available (not compiled in, or the CPU lacks the ISA). Instantiated for
/// the three datapath combinations: (float, float), (int32, int64) and
/// (int32, int32). Tests iterate levels through these to exercise every
/// variant regardless of the active dispatch.
template <typename T, typename Acc>
ConvRowFn<T, Acc> conv_row_kernel(SimdLevel level) noexcept;
template <typename T, typename Acc>
InnerProductFn<T, Acc> inner_product_kernel(SimdLevel level) noexcept;

}  // namespace condor::nn::kernels
