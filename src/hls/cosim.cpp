#include "hls/cosim.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dataflow/executor.hpp"
#include "nn/quantization.hpp"
#include "sim/element_sim.hpp"

namespace condor::hls {

std::string CosimReport::to_string() const {
  std::string out = strings::format(
      "== C/RTL co-simulation (simulated) ==\n"
      "functional : %s (max |diff| = %g over %zu images)\n",
      functional_pass ? "PASS" : "FAIL", static_cast<double>(max_abs_diff),
      images);
  for (const CosimPeReport& pe : pes) {
    out += strings::format("  %-20s %s  (%llu cycles, fill %llu)\n",
                           pe.name.c_str(),
                           pe.stall_free ? "stall-free" : "THROTTLED",
                           static_cast<unsigned long long>(pe.cycles),
                           static_cast<unsigned long long>(pe.fill_cycles));
  }
  out += strings::format("overall    : %s\n", pass() ? "PASS" : "FAIL");
  return out;
}

Result<CosimReport> cosimulate(const hw::AcceleratorPlan& plan,
                               const nn::WeightStore& weights,
                               std::size_t batch, std::uint64_t seed) {
  CosimReport report;
  report.images = batch;

  // -- Functional: KPN accelerator vs the plan datapath's oracle -----------
  CONDOR_ASSIGN_OR_RETURN(
      nn::QuantizedEngine engine,
      nn::QuantizedEngine::create(plan.source.net, weights, plan.data_type()));
  CONDOR_ASSIGN_OR_RETURN(dataflow::AcceleratorExecutor executor,
                          dataflow::AcceleratorExecutor::create(plan, weights));
  const Shape& input_shape = plan.topology->input_shape();
  Rng rng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Tensor image(input_shape);
    for (float& value : image.data()) {
      value = rng.uniform(-1.0F, 1.0F);
    }
    inputs.push_back(std::move(image));
  }
  CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                          executor.run_batch(inputs));
  for (std::size_t i = 0; i < batch; ++i) {
    CONDOR_ASSIGN_OR_RETURN(Tensor expected, engine.forward(inputs[i]));
    report.max_abs_diff =
        std::max(report.max_abs_diff, max_abs_diff(outputs[i], expected));
  }
  report.functional_pass = report.max_abs_diff == 0.0F;

  // -- Cycle-level: each feature PE's memory subsystem --------------------
  const auto& shapes = plan.topology->shapes;
  for (const hw::PePlan& pe : plan.pes) {
    if (!pe.memory.has_value() || pe.kind != hw::PeKind::kFeature) {
      continue;
    }
    // Simulate the PE's largest-window pass at full port rate.
    const std::size_t index = pe.layer_indices.front();
    const nn::LayerSpec& layer = plan.source.net.layers()[index];
    sim::ElementSimConfig config;
    config.map_h = shapes[index].input[1] + 2 * layer.pad;
    config.map_w = shapes[index].input[2] + 2 * layer.pad;
    config.window_h = pe.memory->window_h;
    config.window_w = pe.memory->window_w;
    config.stride = layer.stride;
    CONDOR_ASSIGN_OR_RETURN(sim::ElementSimResult result,
                            sim::simulate_memory_pipeline(config));
    CosimPeReport pe_report;
    pe_report.name = pe.name;
    pe_report.stall_free = result.stall_free();
    pe_report.cycles = result.total_cycles;
    pe_report.fill_cycles = result.fill_cycles;
    report.pes.push_back(std::move(pe_report));
  }
  return report;
}

}  // namespace condor::hls
