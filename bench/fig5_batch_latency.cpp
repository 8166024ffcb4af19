// Reproduces paper Figure 5: "Mean time to process an image in relation to
// the images batch size".
//
// The high-level pipeline of PEs (the paper's intra-layer parallelism)
// overlaps consecutive images, so the mean time per image decreases with
// the batch size and converges once the pipeline is saturated — "for both
// cases convergence is reached approximately when the batch size is bigger
// than the total number of layers of the network".
//
// The curve comes from the batch timing of the PE pipeline
// (sim::simulate_batch) for the exact deployments evaluated in Table 1
// (TC1 @ 100 MHz, LeNet @ 180 MHz, no parallel feature-map processing).
#include <cstdio>
#include <vector>

#include "common/logging.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "sim/accel_sim.hpp"

namespace {

using namespace condor;

}  // namespace

int main() {
  log::set_level(log::Level::kError);

  const std::vector<std::size_t> batches = {1, 2, 4, 8, 16, 32, 64, 128, 256};

  std::printf("== Figure 5: mean time to process an image vs batch size ==\n\n");

  for (const nn::Network& model : {nn::make_tc1(), nn::make_lenet()}) {
    hw::HwNetwork hw_net = hw::with_default_annotations(model, "aws-f1", 200.0);
    auto point = hw::evaluate_design_point(hw_net);
    if (!point.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", model.name().c_str(),
                   point.status().to_string().c_str());
      return 1;
    }
    const sim::AcceleratorSim accel =
        sim::build_accelerator_sim(point.value().performance);
    auto sweep = sim::sweep_batches(accel, batches);
    if (!sweep.is_ok()) {
      std::fprintf(stderr, "%s\n", sweep.status().to_string().c_str());
      return 1;
    }

    std::printf("%s  (%zu layers, %zu pipeline stages, %.0f MHz)\n",
                model.name().c_str(), model.layer_count(), accel.stages.size(),
                point.value().achieved_mhz);
    std::printf("  %8s %16s %14s\n", "batch", "mean ms/image", "vs batch=1");
    const double first = sweep.value().front().mean_ms_per_image;
    double plateau = sweep.value().back().mean_ms_per_image;
    for (const sim::BatchPoint& p : sweep.value()) {
      std::printf("  %8zu %16.4f %13.2fx\n", p.batch, p.mean_ms_per_image,
                  first / p.mean_ms_per_image);
    }
    // Paper's convergence claim: by batch > #layers the curve is within a
    // few percent of its plateau.
    double at_layers = 0.0;
    for (const sim::BatchPoint& p : sweep.value()) {
      if (p.batch >= model.layer_count()) {
        at_layers = p.mean_ms_per_image;
        break;
      }
    }
    std::printf(
        "  convergence: batch >= #layers is within %.1f%% of the plateau "
        "(%s)\n\n",
        100.0 * (at_layers - plateau) / plateau,
        (at_layers - plateau) / plateau < 0.25 ? "OK" : "FAIL");
  }
  return 0;
}
