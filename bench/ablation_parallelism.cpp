// Ablation A3: inter-layer parallelism sweep (parallel feature maps).
//
// Sweeps parallel_in x parallel_out on the bottleneck convolution of the
// LeNet features stage (conv2) and on a VGG-16 block, reporting how
// throughput, DSP cost and the achieved clock move — the three-way tension
// the automated DSE navigates. Also prints the DSE trajectory endpoint for
// reference.
#include <cstdio>

#include "common/logging.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"

namespace {

using namespace condor;

void sweep(const nn::Network& features, std::size_t layer_index,
           const std::vector<std::pair<std::size_t, std::size_t>>& degrees) {
  std::printf("  %-10s %10s %10s %8s %10s %14s\n", "Pin x Pout", "DSP", "LUT",
              "MHz", "GFLOPS", "bottleneck");
  for (const auto& [pin, pout] : degrees) {
    hw::HwNetwork net = hw::with_default_annotations(features, "aws-f1", 250.0);
    net.hw.layers[layer_index].parallel_in = pin;
    net.hw.layers[layer_index].parallel_out = pout;
    if (!net.validate().is_ok()) {
      continue;
    }
    auto point = hw::evaluate_design_point(net);
    if (!point.is_ok()) {
      std::printf("  %3zu x %-4zu  -> %s\n", pin, pout,
                  point.status().to_string().c_str());
      continue;
    }
    // Name of the PE with the largest service time.
    const hw::PeTiming* bottleneck = &point.value().performance.pes.front();
    for (const hw::PeTiming& pe : point.value().performance.pes) {
      if (pe.service_cycles() > bottleneck->service_cycles()) {
        bottleneck = &pe;
      }
    }
    std::printf("  %3zu x %-4zu %10llu %10llu %8.0f %10.2f %14s\n", pin, pout,
                (unsigned long long)point.value().resources.total.dsps,
                (unsigned long long)point.value().resources.total.luts,
                point.value().achieved_mhz, point.value().gflops(),
                bottleneck->name.c_str());
  }
}

}  // namespace

int main() {
  log::set_level(log::Level::kError);
  std::printf("== Ablation A3: inter-layer parallelism sweep ==\n\n");

  {
    const nn::Network features = nn::make_lenet().feature_extraction_prefix();
    std::printf("LeNet features, sweeping conv2 (20 in-maps, 50 out-maps):\n");
    sweep(features, /*conv2=*/3,
          {{1, 1}, {1, 2}, {1, 5}, {1, 10}, {2, 5}, {4, 5}, {2, 10}, {4, 10},
           {5, 10}, {10, 10}, {20, 25}});
    std::printf("\n");
  }
  {
    const nn::Network features = nn::make_vgg16().feature_extraction_prefix();
    std::printf("VGG-16 features, sweeping conv1_2 (64 in, 64 out):\n");
    sweep(features, /*conv1_2=*/2,
          {{1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 4}, {4, 8}});
    std::printf("\n");
  }
  {
    std::printf("automated DSE endpoints for comparison:\n");
    for (const char* name : {"tc1", "lenet"}) {
      const nn::Network features =
          nn::make_model(name).value().feature_extraction_prefix();
      auto result =
          hw::explore(hw::with_default_annotations(features, "aws-f1", 250.0));
      if (result.is_ok()) {
        std::printf("  %-8s %.2f GFLOPS @ %.0f MHz after %zu evaluated points\n",
                    name, result.value().best.gflops(),
                    result.value().best.achieved_mhz,
                    result.value().points_evaluated);
      }
    }
  }
  std::printf(
      "\nshape: throughput rises with Pin*Pout until DSP budget or the "
      "achieved clock caps it; the bottleneck migrates between layers.\n");
  return 0;
}
