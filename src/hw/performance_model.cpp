#include "hw/performance_model.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace condor::hw {
namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace

double PerformanceEstimate::images_per_second() const noexcept {
  if (bottleneck_interval == 0) {
    return 0.0;
  }
  return frequency_mhz * 1e6 / static_cast<double>(bottleneck_interval);
}

double PerformanceEstimate::gflops() const noexcept {
  return images_per_second() * static_cast<double>(flops_per_image) / 1e9;
}

std::string PerformanceEstimate::to_string() const {
  std::string out = strings::format(
      "performance @ %.1f MHz: bottleneck=%llu cycles, latency=%llu cycles, "
      "%.1f img/s, %.2f GFLOPS\n",
      frequency_mhz, static_cast<unsigned long long>(bottleneck_interval),
      static_cast<unsigned long long>(image_latency), images_per_second(),
      gflops());
  for (const PeTiming& pe : pes) {
    out += strings::format(
        "  %-20s interval=%llu (compute=%llu, memory=%llu) fill=%llu ddr=%s "
        "resident_weights=%s\n",
        pe.name.c_str(), static_cast<unsigned long long>(pe.interval()),
        static_cast<unsigned long long>(pe.compute_interval),
        static_cast<unsigned long long>(pe.memory_interval),
        static_cast<unsigned long long>(pe.fill_latency),
        strings::human_bytes(pe.ddr_bytes_per_image).c_str(),
        strings::human_bytes(pe.resident_weight_bytes).c_str());
  }
  return out;
}

Result<PerformanceEstimate> estimate_performance(const AcceleratorPlan& plan,
                                                 const ResourceReport& report,
                                                 double frequency_mhz) {
  if (frequency_mhz <= 0.0) {
    return invalid_input("frequency must be positive");
  }
  if (report.spills_to_ddr.size() != plan.pes.size()) {
    return invalid_input("resource report does not match the plan");
  }
  if (plan.topology == nullptr) {
    return invalid_input("plan carries no analyzed topology");
  }
  const auto& shapes = plan.topology->shapes;
  const auto& layers = plan.source.net.layers();

  PerformanceEstimate estimate;
  estimate.frequency_mhz = frequency_mhz;
  estimate.flops_per_image = plan.flops_per_image;

  // Bytes/cycle the datamover can sustain per stream at this clock.
  const double ddr_bytes_per_cycle =
      plan.board.dram_bandwidth_gbps * 1e9 / 8.0 / (frequency_mhz * 1e6);

  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    const PePlan& pe = plan.pes[p];
    PeTiming timing;
    timing.name = pe.name;

    for (std::size_t position = 0; position < pe.layer_indices.size();
         ++position) {
      const std::size_t index = pe.layer_indices[position];
      const nn::LayerSpec& layer = layers[index];
      const Shape& in = shapes[index].input;
      const Shape& out = shapes[index].output;
      // Fusion honesty (paper §3.2): a pooling or activation layer fused
      // BEHIND a producer inside the same PE is near-free — it consumes the
      // producer pass's output raster in lockstep (one comparison/op per
      // produced element, pipelined), so it adds no service interval of its
      // own. Convolution followers still time-multiplex and charge in full.
      const bool free_rider =
          position > 0 && (layer.kind == nn::LayerKind::kPooling ||
                           layer.kind == nn::LayerKind::kActivation);
      switch (layer.kind) {
        case nn::LayerKind::kConvolution: {
          // II=1 over output points; sequential over feature-map tiles not
          // covered by the parallel ports.
          const std::uint64_t passes = ceil_div(in[0], pe.parallel_in) *
                                       ceil_div(out[0], pe.parallel_out);
          timing.compute_interval += passes * out[1] * out[2];
          // Weight residency: the slice streams from DDR once per design
          // load and is latched on chip — first-image latency, not
          // steady-state traffic.
          timing.resident_weight_bytes +=
              static_cast<std::uint64_t>(out[0]) * in[0] * layer.kernel_h *
              layer.kernel_w * sizeof(float);
          if (report.spills_to_ddr[p]) {
            // Input set re-streamed once per output tile.
            timing.ddr_bytes_per_image +=
                ceil_div(out[0], pe.parallel_out) * in.element_count() *
                sizeof(float);
          }
          break;
        }
        case nn::LayerKind::kPooling: {
          if (free_rider) {
            break;
          }
          const std::uint64_t passes = ceil_div(in[0], pe.parallel_in);
          timing.compute_interval += passes * out[1] * out[2];
          break;
        }
        case nn::LayerKind::kInnerProduct: {
          // Single-input/single-output 1x1-convolution PE: one MAC per
          // cycle per (parallel_in x parallel_out) lane pair.
          const std::uint64_t macs =
              in.element_count() * static_cast<std::uint64_t>(out[0]);
          timing.compute_interval +=
              ceil_div(macs, pe.parallel_in * pe.parallel_out);
          // FC weights are resident too: streamed once per design load,
          // never per image.
          timing.resident_weight_bytes += macs * sizeof(float);
          break;
        }
        case nn::LayerKind::kActivation: {
          if (free_rider) {
            break;
          }
          timing.compute_interval += out.element_count();
          break;
        }
        case nn::LayerKind::kEltwiseAdd:
        case nn::LayerKind::kConcat:
        case nn::LayerKind::kUpsample: {
          // Join / routing PEs emit one output element per cycle; the
          // operand streams arrive concurrently so the merge does not add
          // a second pass over the data.
          timing.compute_interval += out.element_count();
          break;
        }
        default:
          break;
      }
    }

    // Fill latency: the sliding window must see (Kh-1) rows + Kw elements
    // before the first output, plus the module pipeline depth.
    constexpr std::uint64_t kModulePipelineDepth = 12;
    if (pe.memory.has_value()) {
      timing.fill_latency =
          (pe.memory->window_h - 1) * pe.memory->map_w + pe.memory->window_w +
          kModulePipelineDepth;
    } else {
      timing.fill_latency = kModulePipelineDepth;
    }

    timing.memory_interval = static_cast<std::uint64_t>(
        static_cast<double>(timing.ddr_bytes_per_image) / ddr_bytes_per_cycle);
    // One-time weight load at design-load time: pure first-image latency.
    timing.weight_load_cycles = static_cast<std::uint64_t>(
        static_cast<double>(timing.resident_weight_bytes) /
        ddr_bytes_per_cycle);

    estimate.image_latency +=
        timing.service_cycles() + timing.weight_load_cycles;
    // Steady-state interval includes the fill: the sliding window drains
    // and refills between consecutive images, so a PE cannot accept a new
    // image every `interval` cycles alone.
    estimate.bottleneck_interval =
        std::max(estimate.bottleneck_interval, timing.service_cycles());
    estimate.pes.push_back(std::move(timing));
  }

  // The datamover input stream itself can bound the pipeline.
  const auto input_bytes =
      static_cast<std::uint64_t>(plan.topology->input_shape().element_count()) *
      sizeof(float);
  const auto input_stream_cycles = static_cast<std::uint64_t>(
      static_cast<double>(input_bytes) / ddr_bytes_per_cycle);
  estimate.bottleneck_interval =
      std::max<std::uint64_t>(estimate.bottleneck_interval,
                              std::max<std::uint64_t>(input_stream_cycles, 1));

  return estimate;
}

}  // namespace condor::hw
