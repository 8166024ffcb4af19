// C/RTL co-simulation (the Vivado HLS "cosim" step, simulated).
//
// In the original flow, co-simulation runs the generated RTL against the C
// model and signs off functional equivalence plus the achieved initiation
// interval. The reproduction's analog combines its two validation engines:
//
//   * functional — the full KPN accelerator vs the oracle of the plan's
//     datapath (nn::QuantizedEngine: the golden CPU reference on float32,
//     the fixed-point engine on fixed16/fixed8), expected bit-exact;
//   * cycle-level — every feature PE's memory subsystem through the
//     element-granularity simulator, expected stall-free with the planned
//     FIFO capacities.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/accel_plan.hpp"
#include "nn/weights.hpp"

namespace condor::hls {

/// Per-PE cycle-level verdict.
struct CosimPeReport {
  std::string name;
  bool stall_free = false;
  std::uint64_t cycles = 0;
  std::uint64_t fill_cycles = 0;
};

struct CosimReport {
  bool functional_pass = false;  ///< bit-exact vs the datapath's oracle
  float max_abs_diff = 0.0F;
  std::size_t images = 0;
  std::vector<CosimPeReport> pes;  ///< feature PEs only

  [[nodiscard]] bool pass() const noexcept {
    if (!functional_pass) {
      return false;
    }
    for (const CosimPeReport& pe : pes) {
      if (!pe.stall_free) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Runs co-simulation on `batch` deterministic random images (seeded).
Result<CosimReport> cosimulate(const hw::AcceleratorPlan& plan,
                               const nn::WeightStore& weights,
                               std::size_t batch = 2, std::uint64_t seed = 2018);

}  // namespace condor::hls
