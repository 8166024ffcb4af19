#include "hw/resource_model.hpp"

#include <cmath>

#include "common/strings.hpp"

namespace condor::hw {
namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// BRAM blocks needed to hold `elements` datapath words.
std::uint64_t bram_for_elements(std::size_t elements, const CostModel& cost) {
  if (elements == 0) {
    return 0;
  }
  return ceil_div(static_cast<std::uint64_t>(elements) * cost.element_bytes,
                  cost.bram_bytes);
}

}  // namespace

CostModel cost_model_for(nn::DataType type) {
  CostModel cost;  // float32 defaults
  cost.element_bytes = nn::bytes_per_element(type);
  switch (type) {
    case nn::DataType::kFloat32:
      break;
    case nn::DataType::kFixed16:
      // int16 MAC: one DSP48 multiplier, fabric adder; activations as
      // BRAM-backed lookup tables.
      cost.fmul = {30, 60, 1, 0};
      cost.fadd = {18, 20, 0, 0};
      cost.fcmp = {18, 12, 0, 0};
      cost.fdiv = {220, 300, 0, 0};
      cost.ftanh = {120, 160, 0, 2};
      cost.fsigmoid = {120, 160, 0, 2};
      cost.fifo_lut_per_element = 0.3;
      break;
    case nn::DataType::kFixed8:
      // int8 multipliers fit in LUTs (or two per DSP — modeled as fabric).
      cost.fmul = {40, 30, 0, 0};
      cost.fadd = {10, 12, 0, 0};
      cost.fcmp = {10, 8, 0, 0};
      cost.fdiv = {120, 160, 0, 0};
      cost.ftanh = {60, 80, 0, 1};
      cost.fsigmoid = {60, 80, 0, 1};
      cost.fifo_lut_per_element = 0.15;
      break;
  }
  return cost;
}

Resources fifo_cost(std::size_t depth, const CostModel& cost) {
  if (depth == 0) {
    return {};
  }
  if (depth <= cost.fifo_lutram_threshold) {
    Resources r;
    r.luts = static_cast<std::uint64_t>(
        std::ceil(cost.fifo_lut_per_element * static_cast<double>(depth)));
    r.ffs = 40;  // handshake + pointers
    return r;
  }
  Resources r;
  r.luts = 90;  // BRAM FIFO wrapper logic
  r.ffs = 120;
  r.bram36 = bram_for_elements(depth, cost);
  return r;
}

Resources pe_cost(const AcceleratorPlan& plan, std::size_t pe_index,
                  const CostModel& cost) {
  const PePlan& pe = plan.pes[pe_index];
  const auto& layers = plan.source.net.layers();
  Resources total = cost.pe_base;
  total += cost.pe_per_layer.scaled(pe.layer_indices.size());

  // Arithmetic datapath. Conv/classifier: one fp32 multiplier per concurrent
  // MAC plus a balanced adder tree; pooling: comparator or adder tree per
  // window; activations: one pipeline per parallel output lane.
  std::size_t mul_units = 0;
  std::size_t add_units = 0;
  std::size_t cmp_units = 0;
  std::size_t div_units = 0;
  std::size_t tanh_units = 0;
  std::size_t sigmoid_units = 0;
  // Activation pipelines are shared across a fused PE's time-multiplexed
  // layers (only one layer's activation runs at a time), so their unit
  // counts max-share across layers — identical to summing for the
  // single-layer PE case.
  std::size_t act_mul_units = 0;
  std::size_t act_cmp_units = 0;
  std::size_t act_tanh_units = 0;
  std::size_t act_sigmoid_units = 0;
  for (const std::size_t index : pe.layer_indices) {
    const nn::LayerSpec& layer = layers[index];
    switch (layer.kind) {
      case nn::LayerKind::kConvolution: {
        const std::size_t window = layer.kernel_h * layer.kernel_w;
        const std::size_t lanes = pe.parallel_in * pe.parallel_out;
        mul_units = std::max(mul_units, window * lanes);
        // Adder tree (window*lanes - lanes) + accumulator + bias add.
        add_units = std::max(add_units, window * lanes - lanes + pe.parallel_out +
                                            (layer.has_bias ? pe.parallel_out : 0));
        break;
      }
      case nn::LayerKind::kPooling: {
        const std::size_t window = layer.kernel_h * layer.kernel_w;
        const std::size_t lanes = pe.parallel_in;
        if (layer.pool_method == nn::PoolMethod::kMax) {
          cmp_units = std::max(cmp_units, (window - 1) * lanes);
        } else {
          add_units = std::max(add_units, (window - 1) * lanes);
          mul_units = std::max<std::size_t>(mul_units, lanes);  // x 1/N
        }
        break;
      }
      case nn::LayerKind::kInnerProduct: {
        const std::size_t lanes = pe.parallel_in * pe.parallel_out;
        mul_units = std::max(mul_units, lanes);
        add_units = std::max(add_units, lanes + (layer.has_bias ? 1 : 0));
        break;
      }
      case nn::LayerKind::kEltwiseAdd:
        // One adder lane per parallel output map; the fixed-point realign
        // shifts are wiring, not arithmetic units.
        add_units = std::max(add_units, pe.parallel_out);
        break;
      case nn::LayerKind::kConcat:
      case nn::LayerKind::kUpsample:
        break;  // pure routing: stream muxes are covered by pe_base
      default:
        break;
    }
    switch (layer.activation) {
      case nn::Activation::kTanH:
        act_tanh_units = std::max(act_tanh_units, pe.parallel_out);
        break;
      case nn::Activation::kSigmoid:
        act_sigmoid_units = std::max(act_sigmoid_units, pe.parallel_out);
        break;
      case nn::Activation::kReLU:
        // A comparator against zero.
        act_cmp_units = std::max(act_cmp_units, pe.parallel_out);
        break;
      case nn::Activation::kLeakyReLU:
        // Sign test, then x * slope on the low branch.
        act_cmp_units = std::max(act_cmp_units, pe.parallel_out);
        act_mul_units = std::max(act_mul_units, pe.parallel_out);
        break;
      case nn::Activation::kNone:
        break;
    }
  }
  mul_units += act_mul_units;
  cmp_units += act_cmp_units;
  tanh_units += act_tanh_units;
  sigmoid_units += act_sigmoid_units;
  total += cost.fmul.scaled(mul_units);
  total += cost.fadd.scaled(add_units);
  total += cost.fcmp.scaled(cmp_units);
  total += cost.fdiv.scaled(div_units);
  total += cost.ftanh.scaled(tanh_units);
  total += cost.fsigmoid.scaled(sigmoid_units);

  // Memory subsystem: parallel_in replicas of the filter chain + its FIFOs.
  if (pe.memory.has_value()) {
    Resources chain = cost.filter.scaled(pe.memory->filters.size());
    for (const FilterNode& node : pe.memory->filters) {
      chain += fifo_cost(node.fifo_to_next_depth, cost);
    }
    total += chain.scaled(pe.parallel_in);
  }

  // On-chip weight storage (slice buffers for feature PEs, full weights for
  // classifier PEs).
  total.bram36 += bram_for_elements(pe.weight_elements, cost);

  // Input re-scan / output accumulation staging buffers are added by
  // estimate_resources_unchecked: the on-chip-vs-spill decision needs the
  // board budget, which pe_cost alone does not see.
  return total;
}

ResourceReport estimate_resources_unchecked(const AcceleratorPlan& plan,
                                            const CostModel& cost) {
  ResourceReport report;
  report.platform =
      plan.board.cloud ? cost.platform_f1 : cost.platform_onprem;
  report.total = report.platform;
  report.spills_to_ddr.assign(plan.pes.size(), false);

  const std::uint64_t buffer_budget_bram = static_cast<std::uint64_t>(
      static_cast<double>(plan.board.capacity.bram36) *
      cost.buffer_spill_fraction);

  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    const PePlan& pe = plan.pes[p];
    Resources r = pe_cost(plan, p, cost);

    // Stage buffers (see pe_cost comment): decided here because the spill
    // policy depends on the board budget.
    if (pe.kind == PeKind::kFeature) {
      const auto& shapes = plan.topology->shapes;
      std::uint64_t stage_bram = 0;
      for (const std::size_t index : pe.layer_indices) {
        const nn::LayerSpec& layer = plan.source.net.layers()[index];
        if (layer.kind != nn::LayerKind::kConvolution) {
          continue;
        }
        const Shape& in = shapes[index].input;
        const Shape& out = shapes[index].output;
        const bool multi_pass = shapes[index].output[0] > pe.parallel_out &&
                                in[0] > pe.parallel_in;
        if (multi_pass) {
          // Ping-pong staging of the input set + output accumulators.
          stage_bram = std::max(
              stage_bram, 2 * bram_for_elements(in.element_count(), cost) +
                              bram_for_elements(out[1] * out[2] * pe.parallel_out,
                                                cost));
        } else {
          stage_bram = std::max(
              stage_bram,
              bram_for_elements(out[1] * out[2] * pe.parallel_out, cost));
        }
      }
      if (stage_bram > buffer_budget_bram) {
        report.spills_to_ddr[p] = true;  // re-stream from DDR instead
      } else {
        r.bram36 += stage_bram;
      }
    }

    report.modules.push_back({pe.name, r});
    report.total += r;
  }

  report.modules.push_back({"datamover", cost.datamover});
  report.total += cost.datamover;

  // Inter-PE stream FIFOs.
  Resources stream_fifos;
  for (const StreamEdge& edge : plan.edges) {
    stream_fifos += fifo_cost(edge.fifo_depth, cost);
  }
  report.modules.push_back({"stream_fifos", stream_fifos});
  report.total += stream_fifos;

  return report;
}

Result<ResourceReport> estimate_resources(const AcceleratorPlan& plan,
                                          const CostModel& cost) {
  ResourceReport report = estimate_resources_unchecked(plan, cost);
  if (!report.total.fits_within(plan.board.capacity)) {
    return unsynthesizable(strings::format(
        "design needs %s but board %s offers %s",
        report.total.to_string().c_str(), plan.board.id.c_str(),
        plan.board.capacity.to_string().c_str()));
  }
  return report;
}

double ResourceReport::lut_percent(const BoardSpec& board) const noexcept {
  return 100.0 * static_cast<double>(total.luts) /
         static_cast<double>(board.capacity.luts);
}
double ResourceReport::ff_percent(const BoardSpec& board) const noexcept {
  return 100.0 * static_cast<double>(total.ffs) /
         static_cast<double>(board.capacity.ffs);
}
double ResourceReport::dsp_percent(const BoardSpec& board) const noexcept {
  return 100.0 * static_cast<double>(total.dsps) /
         static_cast<double>(board.capacity.dsps);
}
double ResourceReport::bram_percent(const BoardSpec& board) const noexcept {
  return 100.0 * static_cast<double>(total.bram36) /
         static_cast<double>(board.capacity.bram36);
}

std::string ResourceReport::to_string(const BoardSpec& board) const {
  std::string out = strings::format("%-22s %10s %10s %6s %8s\n", "module", "LUT",
                                    "FF", "DSP", "BRAM36");
  out += strings::format("%-22s %10llu %10llu %6llu %8llu\n", "platform",
                         static_cast<unsigned long long>(platform.luts),
                         static_cast<unsigned long long>(platform.ffs),
                         static_cast<unsigned long long>(platform.dsps),
                         static_cast<unsigned long long>(platform.bram36));
  for (const ModuleEstimate& module : modules) {
    out += strings::format("%-22s %10llu %10llu %6llu %8llu\n",
                           module.name.c_str(),
                           static_cast<unsigned long long>(module.resources.luts),
                           static_cast<unsigned long long>(module.resources.ffs),
                           static_cast<unsigned long long>(module.resources.dsps),
                           static_cast<unsigned long long>(module.resources.bram36));
  }
  out += strings::format("%-22s %10llu %10llu %6llu %8llu\n", "TOTAL",
                         static_cast<unsigned long long>(total.luts),
                         static_cast<unsigned long long>(total.ffs),
                         static_cast<unsigned long long>(total.dsps),
                         static_cast<unsigned long long>(total.bram36));
  out += strings::format("%-22s %9.2f%% %9.2f%% %5.2f%% %7.2f%%\n", "utilization",
                         lut_percent(board), ff_percent(board), dsp_percent(board),
                         bram_percent(board));
  return out;
}

}  // namespace condor::hw
