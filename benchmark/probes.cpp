// Workload-independent per-layer probes of the traced run:
//
//   executor.<design>  RunStats counters of a warm 16-image run, which must
//                      stream zero weight bytes
//   model.<design>     modeled device time per image at batch 32 and steady-
//                      state GFLOPS (exact, on the modeled clock, never gated)
//   layer.<L>          each synthesizable LeNet layer alone: executor float32
//                      and fixed8, ReferenceEngine and QuantizedEngine host
//                      time per image, and the model's per-PE interval
//   nn.*               whole-model oracle time and MAC-kernel rates
//   validate.seconds   what `condor validate --model lenet --data-type fixed8
//                      --batch 64 --instances 2` does, median of three
#include <array>
#include <functional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "hls/synthesis.hpp"
#include "hw/accel_plan.hpp"
#include "hw/performance_model.hpp"
#include "nn/kernels.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "serve/loadgen.hpp"
#include "sim/accel_sim.hpp"

namespace condor::bench {
namespace {

constexpr std::size_t kProbeBatch = 16;
constexpr std::uint64_t kProbeSeed = 99;
constexpr int kRepeats = 3;

/// Median over kRepeats of `fn`'s wall time, divided by `per`.
double median_seconds(const std::function<void()>& fn, double per = 1.0) {
  std::vector<double> seconds;
  for (int i = 0; i < kRepeats; ++i) {
    const double begin = now_s();
    fn();
    seconds.push_back((now_s() - begin) / per);
  }
  return quantile(seconds, 0.5);
}

/// Checks every executor output against the oracle for its datapath.
void check_outputs(const Result<std::vector<Tensor>>& outputs,
                   const std::vector<Tensor>& expected, Tally& tally) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    tally.record(outputs.is_ok(),
                 !outputs.is_ok() || same_bytes(outputs.value()[i], expected[i]));
  }
}

Status probe_design(const std::string& name, const Model& model,
                    const hw::HwNetwork& design, Tally& tally, Metrics& out) {
  CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                          hw::plan_accelerator(design));
  CONDOR_ASSIGN_OR_RETURN(const Shape shape, model.network.input_shape());
  const std::vector<Tensor> images = make_images(shape, kProbeBatch, kProbeSeed);
  CONDOR_ASSIGN_OR_RETURN(
      const std::vector<Tensor> expected,
      oracle_outputs(model.network, model.weights, design.hw.data_type, images));
  CONDOR_ASSIGN_OR_RETURN(const sim::AcceleratorSim service,
                          serve::make_service_model(plan));
  CONDOR_ASSIGN_OR_RETURN(dataflow::AcceleratorExecutor executor,
                          dataflow::AcceleratorExecutor::create(
                              std::move(plan), model.weights));
  CONDOR_RETURN_IF_ERROR(executor.run_batch(images).status());
  const Result<std::vector<Tensor>> warm = executor.run_batch(images);
  check_outputs(warm, expected, tally);
  const dataflow::RunStats& stats = executor.last_run_stats();
  if (stats.weight_bytes_streamed != 0) {
    tally.gate_failures.fetch_add(1);
  }
  double fires = 0.0;
  double suspensions = 0.0;
  for (const dataflow::ModuleRunStats& module : stats.module_stats) {
    fires += static_cast<double>(module.fires);
    suspensions += static_cast<double>(module.blocked);
  }
  double blocked_reads = 0.0;
  double blocked_writes = 0.0;
  double writes = 0.0;
  for (const dataflow::FifoStats& stream : stats.stream_stats) {
    blocked_reads += static_cast<double>(stream.blocked_reads);
    blocked_writes += static_cast<double>(stream.blocked_writes);
    writes += static_cast<double>(stream.total_writes);
  }
  const double n = static_cast<double>(kProbeBatch);
  const std::string e = "executor." + name + ".";
  out.insert(out.end(),
             {{e + "fires_per_image", fires / n, "count"},
              {e + "suspensions_per_image", suspensions / n, "count"},
              {e + "blocked_reads_per_image", blocked_reads / n, "count"},
              {e + "blocked_writes_per_image", blocked_writes / n, "count"},
              {e + "fifo_writes_per_image", writes / n, "count"},
              {e + "weight_bytes_warm",
               static_cast<double>(stats.weight_bytes_streamed), "bytes"},
              {e + "images_in_flight_hwm",
               static_cast<double>(stats.images_in_flight_hwm), "count"},
              {e + "fused_local_passes",
               static_cast<double>(stats.fused_local_passes), "count"}});
  CONDOR_ASSIGN_OR_RETURN(const sim::BatchPoint point,
                          sim::simulate_batch(service, 32));
  CONDOR_ASSIGN_OR_RETURN(const double gflops,
                          sim::steady_state_gflops(service));
  out.insert(out.end(),
             {{"model." + name + ".device_us_per_image",
               point.mean_ms_per_image * 1e3, "us"},
              {"model." + name + ".gflops", gflops, "GFLOP/s"}});
  return Status::ok();
}

/// One LeNet layer alone, on its own input shape.
Status probe_layer(const Model& lenet, std::size_t index, const Shape& input,
                   Tally& tally, Metrics& out) {
  nn::LayerSpec layer = lenet.network.layers()[index];
  nn::Network network("layer-" + layer.name);
  nn::LayerSpec data;
  data.name = "data";
  data.kind = nn::LayerKind::kInput;
  data.input_channels = input[0];
  data.input_height = input.rank() == 3 ? input[1] : 1;
  data.input_width = input.rank() == 3 ? input[2] : 1;
  network.add(data);
  layer.inputs.clear();
  network.add(layer);
  nn::WeightStore weights;
  if (const nn::LayerParameters* params = lenet.weights.find(layer.name)) {
    weights.set(layer.name, *params);
  }
  CONDOR_ASSIGN_OR_RETURN(const Shape shape, network.input_shape());
  const std::vector<Tensor> images = make_images(shape, kProbeBatch, kProbeSeed);
  const double n = static_cast<double>(kProbeBatch);
  const std::string prefix = "layer." + layer.name + ".";

  for (const nn::DataType type : {nn::DataType::kFloat32, nn::DataType::kFixed8}) {
    CONDOR_ASSIGN_OR_RETURN(const nn::QuantizedEngine engine,
                            nn::QuantizedEngine::create(network, weights, type));
    std::vector<Tensor> expected;
    for (const Tensor& image : images) {
      CONDOR_ASSIGN_OR_RETURN(Tensor output, engine.forward(image));
      expected.push_back(std::move(output));
    }
    const double engine_s = median_seconds(
        [&] {
          for (const Tensor& image : images) {
            (void)engine.forward(image);
          }
        },
        n);
    hw::HwNetwork design = hw::with_default_annotations(network);
    design.hw.data_type = type;
    CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                            hw::plan_accelerator(design));
    if (type == nn::DataType::kFloat32) {
      CONDOR_ASSIGN_OR_RETURN(const hls::SynthesisReport report,
                              hls::synthesize(plan));
      CONDOR_ASSIGN_OR_RETURN(
          const hw::PerformanceEstimate estimate,
          hw::estimate_performance(plan, report.resources,
                                   report.achieved_clock_mhz));
      out.push_back({prefix + "modeled_interval_cycles",
                     static_cast<double>(estimate.pes.front().interval()),
                     "cycles"});
    }
    CONDOR_ASSIGN_OR_RETURN(dataflow::AcceleratorExecutor executor,
                            dataflow::AcceleratorExecutor::create(
                                std::move(plan), weights));
    CONDOR_RETURN_IF_ERROR(executor.run_batch(images).status());
    const double executor_s = median_seconds(
        [&] { check_outputs(executor.run_batch(images), expected, tally); }, n);
    const bool f32 = type == nn::DataType::kFloat32;
    out.push_back({prefix + (f32 ? "executor_us" : "executor_fixed8_us"),
                   executor_s * 1e6, "us"});
    out.push_back({prefix + (f32 ? "reference_us" : "quantized_us"),
                   engine_s * 1e6, "us"});
  }
  return Status::ok();
}

/// Multiply-accumulates per second of `kernel` over `macs`, in units of 1e9.
double gmacs(const std::function<void()>& kernel, double macs) {
  kernel();
  std::size_t calls = 0;
  const double begin = now_s();
  double elapsed = 0.0;
  while (elapsed < 0.1) {
    kernel();
    ++calls;
    elapsed = now_s() - begin;
  }
  return macs * static_cast<double>(calls) / elapsed / 1e9;
}

/// conv2's shape (20 @ 12x12 in, 50 @ 8x8 out, 5x5) through the packed
/// conv microkernel, for one element type.
template <typename T, typename Acc>
double conv2_gmacs() {
  constexpr std::size_t kIn = 20, kOut = 50, kMap = 12, kK = 5, kOutMap = 8;
  Rng rng(kProbeSeed);
  std::vector<T> input(kIn * kMap * kMap);
  std::vector<T> weights(kOut * kIn * kK * kK);
  for (T& v : input) {
    v = static_cast<T>(rng.uniform(-100.0F, 100.0F));
  }
  for (T& v : weights) {
    v = static_cast<T>(rng.uniform(-100.0F, 100.0F));
  }
  const std::vector<T> packed = nn::kernels::pack_conv_weights<T>(
      weights, kOut, kIn, kK, kK);
  std::vector<Acc> acc(kOutMap * kOutMap * kOut);
  std::array<const T*, kK * kK> taps{};
  const auto conv = [&] {
    std::fill(acc.begin(), acc.end(), Acc{0});
    for (std::size_t ic = 0; ic < kIn; ++ic) {
      for (std::size_t oy = 0; oy < kOutMap; ++oy) {
        for (std::size_t t = 0; t < taps.size(); ++t) {
          taps[t] = &input[(ic * kMap + oy + t / kK) * kMap + t % kK];
        }
        nn::kernels::conv_accumulate_row<T, Acc>(
            &acc[oy * kOutMap * kOut], kOut, kOutMap, taps.data(), taps.size(),
            1, &packed[ic * kK * kK * kOut], kOut);
      }
    }
  };
  return gmacs(conv, static_cast<double>(kIn * kK * kK * kOutMap * kOutMap * kOut));
}

/// ip1's shape (800 in, 500 out) through the packed inner-product kernel.
double ip1_gmacs() {
  constexpr std::size_t kIn = 800, kOut = 500;
  Rng rng(kProbeSeed);
  std::vector<float> x(kIn);
  std::vector<float> weights(kIn * kOut);
  for (float& v : x) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (float& v : weights) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  const std::vector<float> packed =
      nn::kernels::pack_inner_product_weights<float>(weights, kOut, kIn);
  std::vector<float> acc(kOut);
  const auto fc = [&] {
    std::fill(acc.begin(), acc.end(), 0.0F);
    nn::kernels::inner_product_accumulate<float, float>(
        acc.data(), kOut, x.data(), kIn, packed.data(), kOut);
  };
  return gmacs(fc, static_cast<double>(kIn * kOut));
}

/// The `condor validate --model lenet --data-type fixed8 --batch 64
/// --instances 2` path: plan, pool, one batch, the quantized oracle per
/// image and a byte comparison.
Result<double> validate_seconds(Tally& tally) {
  std::vector<double> seconds;
  for (int i = 0; i < kRepeats; ++i) {
    const double begin = now_s();
    const nn::Network network = nn::make_lenet();
    CONDOR_ASSIGN_OR_RETURN(const nn::WeightStore weights,
                            nn::initialize_weights(network, 1));
    CONDOR_ASSIGN_OR_RETURN(
        const nn::QuantizedEngine engine,
        nn::QuantizedEngine::create(network, weights, nn::DataType::kFixed8));
    hw::HwNetwork design = hw::with_default_annotations(network);
    design.hw.data_type = nn::DataType::kFixed8;
    CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                            hw::plan_accelerator(design));
    CONDOR_ASSIGN_OR_RETURN(
        dataflow::ExecutorPool pool,
        dataflow::ExecutorPool::create(std::move(plan), weights, 2));
    const std::vector<Tensor> images =
        make_images(Shape{1, 28, 28}, 64, kProbeSeed);
    const Result<std::vector<Tensor>> outputs = pool.run_batch(images);
    std::vector<Tensor> expected;
    for (const Tensor& image : images) {
      CONDOR_ASSIGN_OR_RETURN(Tensor output, engine.forward(image));
      expected.push_back(std::move(output));
    }
    seconds.push_back(now_s() - begin);
    check_outputs(outputs, expected, tally);
  }
  return quantile(seconds, 0.5);
}

}  // namespace

Result<Metrics> run_layer_probes(Trace& trace, Tally& tally) {
  const double begin = now_s();
  Metrics out;
  CONDOR_ASSIGN_OR_RETURN(const Model lenet, make_model("lenet"));
  CONDOR_ASSIGN_OR_RETURN(const Model resnet, make_model("tiny_resnet"));
  hw::HwNetwork lenet_fixed8 = hw::with_default_annotations(lenet.network);
  lenet_fixed8.hw.data_type = nn::DataType::kFixed8;
  CONDOR_ASSIGN_OR_RETURN(const hw::HwNetwork lenet_dse,
                          explored_design(lenet.network));
  CONDOR_ASSIGN_OR_RETURN(const hw::HwNetwork resnet_dse,
                          explored_design(resnet.network));
  CONDOR_RETURN_IF_ERROR(probe_design(
      "lenet-f32", lenet, hw::with_default_annotations(lenet.network), tally, out));
  CONDOR_RETURN_IF_ERROR(
      probe_design("lenet-fixed8", lenet, lenet_fixed8, tally, out));
  CONDOR_RETURN_IF_ERROR(probe_design("lenet-dse", lenet, lenet_dse, tally, out));
  CONDOR_RETURN_IF_ERROR(
      probe_design("resnet-dse", resnet, resnet_dse, tally, out));

  // The isolated-layer table; the host-side softmax is skipped.
  CONDOR_ASSIGN_OR_RETURN(const std::vector<nn::LayerShapes> shapes,
                          lenet.network.infer_shapes());
  for (std::size_t i = 0; i < lenet.network.layer_count(); ++i) {
    const nn::LayerKind kind = lenet.network.layers()[i].kind;
    if (kind == nn::LayerKind::kInput || kind == nn::LayerKind::kSoftmax) {
      continue;
    }
    CONDOR_RETURN_IF_ERROR(probe_layer(lenet, i, shapes[i].input, tally, out));
  }

  const std::vector<Tensor> images =
      make_images(Shape{1, 28, 28}, kProbeBatch, kProbeSeed);
  const double n = static_cast<double>(kProbeBatch);
  for (const nn::DataType type : {nn::DataType::kFloat32, nn::DataType::kFixed8}) {
    CONDOR_ASSIGN_OR_RETURN(
        const nn::QuantizedEngine engine,
        nn::QuantizedEngine::create(lenet.network, lenet.weights, type));
    const double s = median_seconds(
        [&] {
          for (const Tensor& image : images) {
            (void)engine.forward(image);
          }
        },
        n);
    out.push_back({type == nn::DataType::kFloat32 ? "nn.reference_ms_per_image"
                                                  : "nn.quantized_ms_per_image",
                   s * 1e3, "ms"});
  }
  out.push_back({"nn.kernel.conv_f32_gmacs", conv2_gmacs<float, float>(), "GMAC/s"});
  out.push_back({"nn.kernel.conv_i8_gmacs",
                 conv2_gmacs<std::int32_t, std::int32_t>(), "GMAC/s"});
  out.push_back({"nn.kernel.fc_f32_gmacs", ip1_gmacs(), "GMAC/s"});
  CONDOR_ASSIGN_OR_RETURN(const double validate_s, validate_seconds(tally));
  out.push_back({"validate.seconds", validate_s, "s"});
  trace.add("probe.layers", begin, now_s(), 0);
  return out;
}

}  // namespace condor::bench
