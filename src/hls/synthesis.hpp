// Simulated Vivado HLS synthesis.
//
// Consumes the generated sources' structural description (via the plan) and
// produces per-module synthesis reports — latency, initiation interval,
// resource usage, estimated clock — in the same shape Vivado HLS emits
// them. The original flow gates layer creation on these reports; ours gates
// the same steps and additionally records them in the xclbin artifact.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/accel_plan.hpp"
#include "hw/performance_model.hpp"
#include "hw/resource_model.hpp"
#include "hw/timing_model.hpp"

namespace condor::hls {

/// Report for one synthesized module (a PE or a filter).
struct ModuleReport {
  std::string module;
  std::uint64_t latency_cycles = 0;   ///< per-image latency
  std::uint64_t interval_cycles = 0;  ///< initiation interval (per image)
  double estimated_clock_mhz = 0.0;
  hw::Resources resources;
};

/// The whole-design synthesis outcome.
struct SynthesisReport {
  std::vector<ModuleReport> modules;
  hw::ResourceReport resources;
  double achieved_clock_mhz = 0.0;
  double target_clock_mhz = 0.0;
  bool timing_met = false;  ///< achieved >= target

  [[nodiscard]] std::string to_string(const hw::BoardSpec& board) const;
};

struct SynthesisOptions {
  hw::CostModel cost;
  hw::TimingModel timing;
};

/// Runs the simulated synthesis of a plan, priced with the cost and timing
/// presets of the plan's datapath (hw::cost_model_for / timing_model_for).
/// Fails (kUnsynthesizable) when the design does not fit the board.
Result<SynthesisReport> synthesize(const hw::AcceleratorPlan& plan);

/// Same, priced with the caller's cost and timing models.
Result<SynthesisReport> synthesize(const hw::AcceleratorPlan& plan,
                                   const SynthesisOptions& options);

}  // namespace condor::hls
