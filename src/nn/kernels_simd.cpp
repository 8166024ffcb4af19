#include "nn/kernels_simd.hpp"

#include <cstdio>
#include <cstdlib>

#include "nn/kernels_simd_internal.hpp"

namespace condor::nn::kernels {

// __builtin_cpu_supports requires a literal argument, hence a macro rather
// than a helper function.
#if defined(__x86_64__) || defined(__i386__)
#define CONDOR_CPU_HAS(feature) (__builtin_cpu_supports(feature) != 0)
#else
#define CONDOR_CPU_HAS(feature) false
#endif

namespace {

SimdLevel clamp_to_supported(SimdLevel level) noexcept {
  const SimdLevel max = max_supported_simd_level();
  return static_cast<int>(level) > static_cast<int>(max) ? max : level;
}

/// Env override (clamped) when set, widest supported level otherwise.
SimdLevel startup_level() noexcept {
  const char* env = std::getenv("CONDOR_SIMD");
  if (env != nullptr && env[0] != '\0') {
    SimdLevel parsed;
    if (parse_simd_level(env, parsed)) {
      return clamp_to_supported(parsed);
    }
    std::fprintf(stderr,
                 "condor: ignoring unknown CONDOR_SIMD=%s "
                 "(expected scalar|avx2|avx512)\n",
                 env);
  }
  return max_supported_simd_level();
}

const detail::IsaKernels* table_for(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return detail::avx512_kernels();
    case SimdLevel::kAvx2:
      return detail::avx2_kernels();
    case SimdLevel::kScalar:
      break;
  }
  return &detail::scalar_kernels();
}

}  // namespace

namespace detail {

ActiveKernels::ActiveKernels() noexcept { install(startup_level()); }

void ActiveKernels::install(SimdLevel requested) noexcept {
  const SimdLevel lvl = clamp_to_supported(requested);
  const IsaKernels* table = table_for(lvl);
  if (table == nullptr) {
    table = &scalar_kernels();
  }
  conv_f32.store(table->conv_f32, std::memory_order_relaxed);
  conv_i32_i64.store(table->conv_i32_i64, std::memory_order_relaxed);
  conv_i32_i32.store(table->conv_i32_i32, std::memory_order_relaxed);
  ip_f32.store(table->ip_f32, std::memory_order_relaxed);
  ip_i32_i64.store(table->ip_i32_i64, std::memory_order_relaxed);
  ip_fixed8.store(table->ip_fixed8, std::memory_order_relaxed);
  quantize.store(table->quantize, std::memory_order_relaxed);
  level.store(lvl, std::memory_order_release);
}

ActiveKernels& active_kernels() noexcept {
  static ActiveKernels instance;
  return instance;
}

}  // namespace detail

std::string_view to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept {
  if (name == "scalar") {
    out = SimdLevel::kScalar;
  } else if (name == "avx2") {
    out = SimdLevel::kAvx2;
  } else if (name == "avx512") {
    out = SimdLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

SimdLevel max_supported_simd_level() noexcept {
  if (detail::avx512_kernels() != nullptr && CONDOR_CPU_HAS("avx512f") &&
      CONDOR_CPU_HAS("avx512bw")) {
    return SimdLevel::kAvx512;
  }
  if (detail::avx2_kernels() != nullptr && CONDOR_CPU_HAS("avx2") &&
      CONDOR_CPU_HAS("fma")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kScalar;
}

SimdLevel active_simd_level() noexcept {
  return detail::active_kernels().level.load(std::memory_order_acquire);
}

SimdLevel set_active_simd_level_for_testing(SimdLevel level) noexcept {
  detail::active_kernels().install(level);
  return active_simd_level();
}

std::string cpu_feature_string() {
  struct Feature {
    const char* name;
    bool present;
  };
  const Feature features[] = {
      {"sse2", CONDOR_CPU_HAS("sse2")},
      {"sse3", CONDOR_CPU_HAS("sse3")},
      {"ssse3", CONDOR_CPU_HAS("ssse3")},
      {"sse4.1", CONDOR_CPU_HAS("sse4.1")},
      {"sse4.2", CONDOR_CPU_HAS("sse4.2")},
      {"avx", CONDOR_CPU_HAS("avx")},
      {"avx2", CONDOR_CPU_HAS("avx2")},
      {"fma", CONDOR_CPU_HAS("fma")},
      {"avx512f", CONDOR_CPU_HAS("avx512f")},
      {"avx512bw", CONDOR_CPU_HAS("avx512bw")},
      {"avx512vl", CONDOR_CPU_HAS("avx512vl")},
  };
  std::string out;
  for (const Feature& f : features) {
    if (!f.present) {
      continue;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += f.name;
  }
  if (out.empty()) {
    out = "baseline";
  }
  return out;
}

template <typename T, typename Acc>
ConvRowFn<T, Acc> conv_row_kernel(SimdLevel level) noexcept {
  if (static_cast<int>(level) >
      static_cast<int>(max_supported_simd_level())) {
    return nullptr;
  }
  const detail::IsaKernels* table = table_for(level);
  return table != nullptr ? detail::conv_entry<T, Acc>(*table) : nullptr;
}

template <typename T, typename Acc>
InnerProductFn<T, Acc> inner_product_kernel(SimdLevel level) noexcept {
  if (static_cast<int>(level) >
      static_cast<int>(max_supported_simd_level())) {
    return nullptr;
  }
  const detail::IsaKernels* table = table_for(level);
  return table != nullptr ? detail::inner_product_entry<T, Acc>(*table)
                          : nullptr;
}

Fixed8InnerProductFn fixed8_inner_product_kernel(SimdLevel level) noexcept {
  if (static_cast<int>(level) >
      static_cast<int>(max_supported_simd_level())) {
    return nullptr;
  }
  const detail::IsaKernels* table = table_for(level);
  return table != nullptr ? table->ip_fixed8 : nullptr;
}

template ConvRowFn<float, float> conv_row_kernel<float, float>(
    SimdLevel) noexcept;
template ConvRowFn<std::int32_t, std::int64_t>
conv_row_kernel<std::int32_t, std::int64_t>(SimdLevel) noexcept;
template ConvRowFn<std::int32_t, std::int32_t>
conv_row_kernel<std::int32_t, std::int32_t>(SimdLevel) noexcept;
template InnerProductFn<float, float> inner_product_kernel<float, float>(
    SimdLevel) noexcept;
template InnerProductFn<std::int32_t, std::int64_t>
inner_product_kernel<std::int32_t, std::int64_t>(SimdLevel) noexcept;

}  // namespace condor::nn::kernels
