// The planner's core, internal to src/hw: plans an already analyzed
// network, so a search that evaluates many annotation variants of one
// topology (the DSE) analyzes it once. Code outside src/hw calls the
// one-argument plan_accelerator(), which analyzes first.
#pragma once

#include <memory>

#include "hw/accel_plan.hpp"

namespace condor::hw {

/// Plans `network`. `topology` must be network.net.analyze()'s value and
/// the annotations must pass network.validate_annotations(*topology).
/// `network` becomes the plan's source.
Result<AcceleratorPlan> plan_accelerator(
    HwNetwork network, std::shared_ptr<const nn::Topology> topology);

}  // namespace condor::hw
