#include "cli/cli.hpp"

#include <map>
#include <optional>

#include "caffe/export.hpp"
#include "cloud/afi.hpp"
#include "cloud/s3.hpp"
#include "common/byte_io.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "condor/flow.hpp"
#include "condor/report.hpp"
#include "hw/dse.hpp"
#include "nn/kernels_simd.hpp"
#include "nn/models.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/executor_pool.hpp"
#include "nn/quantization.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"
#include "runtime/kernel_runner.hpp"
#include "serve/loadgen.hpp"
#include "sim/accel_sim.hpp"

namespace condor::cli {
namespace {

/// Minimal --flag value parser; flags may appear in any order.
class Args {
 public:
  Args(std::vector<std::string>::const_iterator begin,
       std::vector<std::string>::const_iterator end, std::ostream& err)
      : err_(err) {
    for (auto it = begin; it != end; ++it) {
      if (strings::starts_with(*it, "--")) {
        const std::string key = it->substr(2);
        if (it + 1 != end && !strings::starts_with(*(it + 1), "--")) {
          values_[key] = *++it;
        } else {
          values_[key] = "";  // boolean flag
        }
      } else {
        err_ << "unexpected argument '" << *it << "'\n";
        ok_ = false;
      }
    }
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::make_optional(it->second);
  }

  [[nodiscard]] std::string get_or(const std::string& key,
                                   std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }

 private:
  std::map<std::string, std::string> values_;
  std::ostream& err_;
  bool ok_ = true;
};

int usage(std::ostream& err) {
  err << "usage: condor <command> [options]\n"
         "commands:\n"
         "  boards                               list supported boards\n"
         "  summary --model M                    show a model-zoo topology\n"
         "  build   --prototxt F --caffemodel F  run the automation flow\n"
         "        | --onnx F\n"
         "        | --network F --weights F\n"
         "          [--board ID] [--freq MHZ] [--out DIR] [--dse]\n"
         "          [--deploy onprem|cloud] [--bucket NAME] [--aws-root DIR]\n"
         "  dse     --model M [--features] [--max-fused K]\n"
         "                                       automated DSE (K > 1 searches\n"
         "                                       PE fusion clusterings too)\n"
         "  run     --xclbin F --weights F [--batch N] [--instances N]\n"
         "  fig5    --model M                    batch-size latency sweep\n"
         "  validate --model M [--batch N] [--parallel-out D]\n"
         "           [--data-type float32|fixed16|fixed8] [--instances N]\n"
         "                                       dataflow engine vs reference\n"
         "  serve-bench --model M [--rate RPS] [--requests N]\n"
         "           [--max-batch N] [--preferred-batch N] [--max-delay-ms MS]\n"
         "           [--instances N] [--data-type T] [--seed S]\n"
         "                                       dynamic batching vs serial\n"
         "  describe-afi --id I --aws-root DIR\n";
  return 2;
}

int cmd_boards(std::ostream& out) {
  out << strings::format("%-10s %-38s %10s %8s %6s %8s %6s\n", "id", "part",
                         "LUT", "DSP", "BRAM", "Fmax", "cloud");
  for (const hw::BoardSpec& board : hw::board_database()) {
    out << strings::format("%-10s %-38s %10llu %8llu %6llu %6.0fMHz %6s\n",
                           board.id.c_str(), board.part.c_str(),
                           (unsigned long long)board.capacity.luts,
                           (unsigned long long)board.capacity.dsps,
                           (unsigned long long)board.capacity.bram36,
                           board.max_frequency_mhz, board.cloud ? "yes" : "no");
  }
  return 0;
}

int cmd_summary(const Args& args, std::ostream& out, std::ostream& err) {
  const auto model_name = args.get("model");
  if (!model_name.has_value()) {
    err << "summary requires --model\n";
    return 2;
  }
  auto model = nn::make_model(*model_name);
  if (!model.is_ok()) {
    err << model.status().to_string() << "\n";
    return 1;
  }
  out << model.value().summary();
  out << strings::format(
      "parameters: %llu   FLOPs/image: %llu (features: %llu)\n",
      (unsigned long long)model.value().parameter_count().value(),
      (unsigned long long)model.value().total_flops().value(),
      (unsigned long long)model.value().feature_extraction_flops().value());
  return 0;
}

int cmd_build(const Args& args, std::ostream& out, std::ostream& err) {
  condorflow::FrontendInput input;
  if (args.has("prototxt") || args.has("caffemodel")) {
    const auto prototxt = args.get("prototxt");
    const auto caffemodel = args.get("caffemodel");
    if (!prototxt || !caffemodel) {
      err << "the Caffe frontend needs both --prototxt and --caffemodel\n";
      return 2;
    }
    auto text = read_text_file(*prototxt);
    auto bytes = read_file(*caffemodel);
    if (!text.is_ok() || !bytes.is_ok()) {
      err << (!text.is_ok() ? text.status() : bytes.status()).to_string() << "\n";
      return 1;
    }
    input.prototxt_text = std::move(text).value();
    input.caffemodel_bytes = std::move(bytes).value();
  } else if (args.has("onnx")) {
    auto bytes = read_file(*args.get("onnx"));
    if (!bytes.is_ok()) {
      err << bytes.status().to_string() << "\n";
      return 1;
    }
    input.onnx_bytes = std::move(bytes).value();
  } else if (args.has("network")) {
    const auto weights = args.get("weights");
    if (!weights) {
      err << "the Condor frontend needs --network and --weights\n";
      return 2;
    }
    auto text = read_text_file(*args.get("network"));
    auto bytes = read_file(*weights);
    if (!text.is_ok() || !bytes.is_ok()) {
      err << (!text.is_ok() ? text.status() : bytes.status()).to_string() << "\n";
      return 1;
    }
    input.network_json_text = std::move(text).value();
    input.weight_file_bytes = std::move(bytes).value();
  } else {
    err << "build needs an input source (--prototxt/--caffemodel, --onnx, or "
           "--network/--weights)\n";
    return 2;
  }
  input.board_id = args.get_or("board", "aws-f1");
  if (const auto freq = args.get("freq")) {
    input.target_frequency_mhz = std::strtod(freq->c_str(), nullptr);
  }

  condorflow::FlowOptions options;
  options.run_dse = args.has("dse");
  if (const auto dir = args.get("out")) {
    options.output_dir = *dir;
  }
  const std::string deploy = args.get_or("deploy", "onprem");

  std::optional<cloud::ObjectStore> store;
  std::optional<cloud::AfiService> afi;
  if (deploy == "cloud") {
    options.deployment = condorflow::Deployment::kCloud;
    options.s3_bucket = args.get_or("bucket", "condor-artifacts");
    store.emplace(args.get_or("aws-root", "/tmp/condor-aws"));
    afi.emplace(*store);
  } else if (deploy != "onprem") {
    err << "--deploy must be 'onprem' or 'cloud'\n";
    return 2;
  }

  auto flow = condorflow::Flow::run(input, options,
                                    store.has_value() ? &*store : nullptr,
                                    afi.has_value() ? &*afi : nullptr);
  if (!flow.is_ok()) {
    err << "flow failed: " << flow.status().to_string() << "\n";
    return 1;
  }
  out << hw::describe(flow.value().plan);
  out << flow.value().synthesis.to_string(flow.value().plan.board);
  auto report = condorflow::make_deployment_report(flow.value());
  if (report.is_ok()) {
    out << "\n" << condorflow::format_deployment_table({report.value()});
  }
  if (flow.value().afi.has_value()) {
    out << strings::format("\nAFI: %s (%s) staged in s3://%s\n",
                           flow.value().afi->afi_id.c_str(),
                           std::string(cloud::to_string(flow.value().afi->state)).c_str(),
                           options.s3_bucket.c_str());
  }
  if (options.output_dir.has_value()) {
    out << "artifacts written to " << *options.output_dir << "\n";
  }
  return 0;
}

int cmd_dse(const Args& args, std::ostream& out, std::ostream& err) {
  const auto model_name = args.get("model");
  if (!model_name.has_value()) {
    err << "dse requires --model\n";
    return 2;
  }
  auto model = nn::make_model(*model_name);
  if (!model.is_ok()) {
    err << model.status().to_string() << "\n";
    return 1;
  }
  nn::Network net = args.has("features")
                        ? model.value().feature_extraction_prefix()
                        : model.value();
  // Fusion-aware clustering search: --max-fused K enumerates fusing up to K
  // chained feature PEs onto one (1 = fixed clustering, the default).
  const std::size_t max_fused = static_cast<std::size_t>(
      std::strtoull(args.get_or("max-fused", "1").c_str(), nullptr, 10));
  if (max_fused == 0) {
    err << "--max-fused must be >= 1\n";
    return 2;
  }
  hw::DseOptions options;
  options.max_fused = max_fused;
  auto result = hw::explore(
      hw::with_default_annotations(std::move(net),
                                   args.get_or("board", "aws-f1"), 250.0),
      options);
  if (!result.is_ok()) {
    err << result.status().to_string() << "\n";
    return 1;
  }
  out << strings::format("evaluated %zu points (%zu feasible) over %zu "
                         "clustering(s)\n",
                         result.value().points_evaluated,
                         result.value().points_feasible,
                         result.value().clusterings_explored);
  for (std::size_t step = 0; step < result.value().trajectory.size(); ++step) {
    const hw::DsePoint& point = result.value().trajectory[step];
    out << strings::format("  step %2zu: %8.2f GFLOPS @ %3.0f MHz\n", step,
                           point.gflops(), point.achieved_mhz);
  }
  out << strings::format("best: %.2f GFLOPS @ %.0f MHz\n",
                         result.value().best.gflops(),
                         result.value().best.achieved_mhz);
  return 0;
}

int cmd_run(const Args& args, std::ostream& out, std::ostream& err) {
  const auto xclbin_path = args.get("xclbin");
  const auto weights_path = args.get("weights");
  if (!xclbin_path || !weights_path) {
    err << "run requires --xclbin and --weights\n";
    return 2;
  }
  auto xclbin = runtime::Xclbin::load(*xclbin_path);
  if (!xclbin.is_ok()) {
    err << xclbin.status().to_string() << "\n";
    return 1;
  }
  auto kernel = runtime::LoadedKernel::from_xclbin(xclbin.value());
  if (!kernel.is_ok()) {
    err << kernel.status().to_string() << "\n";
    return 1;
  }
  auto weight_bytes = read_file(*weights_path);
  if (!weight_bytes.is_ok()) {
    err << weight_bytes.status().to_string() << "\n";
    return 1;
  }
  // Replicated accelerator instances (one ExecutorPool under the kernel);
  // the batch is sharded dynamically and device time is the slowest replica.
  const std::size_t instances = static_cast<std::size_t>(
      std::strtoull(args.get_or("instances", "1").c_str(), nullptr, 10));
  if (instances == 0) {
    err << "--instances must be >= 1\n";
    return 2;
  }
  if (auto s = kernel.value().set_instances(instances); !s.is_ok()) {
    err << s.to_string() << "\n";
    return 1;
  }
  if (auto s = kernel.value().load_weights(weight_bytes.value()); !s.is_ok()) {
    err << s.to_string() << "\n";
    return 1;
  }
  const std::size_t batch =
      static_cast<std::size_t>(std::strtoull(args.get_or("batch", "16").c_str(),
                                             nullptr, 10));
  const Shape input_shape =
      kernel.value().plan().source.net.input_shape().value();
  Rng rng(123);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < batch; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(0.0F, 1.0F);
    }
    inputs.push_back(std::move(image));
  }
  auto outputs = kernel.value().run(inputs);
  if (!outputs.is_ok()) {
    err << outputs.status().to_string() << "\n";
    return 1;
  }
  const runtime::KernelStats& stats = kernel.value().last_stats();
  out << strings::format(
      "%zu images in %.3f ms device time (%.1f img/s @ %.0f MHz)\n", batch,
      stats.simulated_seconds * 1e3, stats.images_per_second(batch),
      stats.clock_mhz);
  if (instances > 1) {
    const dataflow::PoolRunStats* shards = kernel.value().last_shard_stats();
    std::string census;
    for (const std::size_t images : shards->images_per_instance) {
      census += census.empty() ? strings::format("%zu", images)
                               : strings::format("+%zu", images);
    }
    out << strings::format("%zu instances (images per instance: %s)\n",
                           instances, census.c_str());
  }
  return 0;
}

int cmd_validate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto model_name = args.get("model");
  if (!model_name.has_value()) {
    err << "validate requires --model\n";
    return 2;
  }
  auto model = nn::make_model(*model_name);
  if (!model.is_ok()) {
    err << model.status().to_string() << "\n";
    return 1;
  }
  const std::size_t batch = static_cast<std::size_t>(
      std::strtoull(args.get_or("batch", "4").c_str(), nullptr, 10));
  auto weights = nn::initialize_weights(model.value(), 1);
  if (!weights.is_ok()) {
    err << weights.status().to_string() << "\n";
    return 1;
  }
  // The oracle: the float golden reference for float32, the fixed-point
  // QuantizedEngine otherwise (QuantizedEngine delegates to the float
  // reference for float32, so one engine serves both).
  auto data_type = nn::parse_data_type(args.get_or("data-type", "float32"));
  if (!data_type.is_ok()) {
    err << data_type.status().to_string() << "\n";
    return 2;
  }
  auto engine = nn::QuantizedEngine::create(model.value(), weights.value(),
                                            data_type.value());
  // Uniform intra-layer unfolding degree, clamped per layer to its output
  // map count (a 10-output classifier caps at 10 lanes regardless of the
  // requested degree).
  const std::size_t parallel_out = static_cast<std::size_t>(
      std::strtoull(args.get_or("parallel-out", "1").c_str(), nullptr, 10));
  if (parallel_out == 0) {
    err << "--parallel-out must be >= 1\n";
    return 2;
  }
  hw::HwNetwork hw_net = hw::with_default_annotations(model.value());
  hw_net.hw.data_type = data_type.value();
  if (parallel_out > 1) {
    auto shapes = model.value().infer_shapes();
    if (!shapes.is_ok()) {
      err << shapes.status().to_string() << "\n";
      return 1;
    }
    for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
      hw_net.hw.layers[i].parallel_out =
          std::min(parallel_out, shapes.value()[i].output[0]);
    }
  }
  auto plan = hw::plan_accelerator(hw_net);
  if (!plan.is_ok()) {
    err << plan.status().to_string() << "\n";
    return 1;
  }
  // Multi-instance validation proves the sharded pool stays bit-exact: the
  // same oracle comparison runs with the batch split across N replicas.
  const std::size_t instances = static_cast<std::size_t>(
      std::strtoull(args.get_or("instances", "1").c_str(), nullptr, 10));
  if (instances == 0) {
    err << "--instances must be >= 1\n";
    return 2;
  }
  auto pool = dataflow::ExecutorPool::create(plan.value(), weights.value(),
                                             instances);
  if (!pool.is_ok()) {
    err << pool.status().to_string() << "\n";
    return 1;
  }
  Rng rng(777);
  const Shape input_shape = model.value().input_shape().value();
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < batch; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    inputs.push_back(std::move(image));
  }
  auto outputs = pool.value().run_batch(inputs);
  if (!outputs.is_ok()) {
    err << outputs.status().to_string() << "\n";
    return 1;
  }
  float worst = 0.0F;
  for (std::size_t i = 0; i < batch; ++i) {
    const Tensor expected = engine.value().forward(inputs[i]).value();
    worst = std::max(worst, max_abs_diff(outputs.value()[i], expected));
  }
  // Bit-exactness is expected at every data type: the fixed datapaths run
  // the same integer arithmetic in both engines.
  const bool fixed = nn::is_fixed_point(data_type.value());
  std::string degree =
      fixed ? strings::format("parallel_out=%zu, %s", parallel_out,
                              std::string(nn::to_string(data_type.value())).c_str())
            : strings::format("parallel_out=%zu", parallel_out);
  if (instances > 1) {
    degree += strings::format(", instances=%zu", instances);
  }
  out << strings::format(
      "dataflow engine (%s) vs %s on %zu images: "
      "max |diff| = %g (%s)\n",
      degree.c_str(), fixed ? "quantized reference" : "golden reference", batch,
      worst, worst == 0.0F ? "bit-exact PASS" : "FAIL");
  // Topology summary: how much of the network is DAG-shaped. Depth is the
  // longest producer->consumer path; a linear chain's depth equals its
  // layer count, so the gap between the two is the parallel width.
  const auto depth = model.value().dag_depth();
  if (!depth.is_ok()) {
    err << depth.status().to_string() << "\n";
    return 1;
  }
  out << strings::format("topology: %zu layers, %zu joins, DAG depth %zu\n",
                         model.value().layer_count(),
                         model.value().join_count(), depth.value());
  // Fusion summary: how the plan clusters layers onto PEs. "fused passes"
  // counts the passes beyond each PE's first (the ones the executor's
  // fused-pass locality keeps on chip); "max chain" is the longest fused
  // layer chain on one PE.
  std::size_t fused_passes = 0;
  std::size_t max_chain = 1;
  for (const hw::PePlan& pe : plan.value().pes) {
    fused_passes += pe.layer_indices.size() - 1;
    max_chain = std::max(max_chain, pe.layer_indices.size());
  }
  out << strings::format("PEs: %zu, fused passes: %zu, max chain: %zu\n",
                         plan.value().pes.size(), fused_passes, max_chain);
  const dataflow::RunStats& run_stats =
      pool.value().instance(0).last_run_stats();
  std::size_t ring_elements = 0;
  for (const dataflow::FifoStats& stream : run_stats.stream_stats) {
    ring_elements += stream.capacity;
  }
  out << strings::format(
      "KPN: %zu modules, %zu streams, %.2f MB of FIFO rings\n",
      run_stats.modules, run_stats.streams,
      static_cast<double>(ring_elements * sizeof(float)) / 1e6);
  std::uint64_t fires = 0;
  std::uint64_t module_blocks = 0;
  for (const dataflow::ModuleRunStats& module : run_stats.module_stats) {
    fires += module.fires;
    module_blocks += module.blocked;
  }
  std::uint64_t blocked_reads = 0;
  std::uint64_t blocked_writes = 0;
  for (const dataflow::FifoStats& stream : run_stats.stream_stats) {
    blocked_reads += stream.blocked_reads;
    blocked_writes += stream.blocked_writes;
  }
  out << strings::format(
      "scheduler: %s, %zu workers, %llu fires, %llu suspensions "
      "(%llu read blocks, %llu write blocks)\n",
      std::string(run_stats.scheduler).c_str(), run_stats.workers,
      static_cast<unsigned long long>(fires),
      static_cast<unsigned long long>(module_blocks),
      static_cast<unsigned long long>(blocked_reads),
      static_cast<unsigned long long>(blocked_writes));
  out << strings::format("kernels: %s (CPU: %s)\n",
                         std::string(run_stats.simd_level).c_str(),
                         nn::kernels::cpu_feature_string().c_str());
  out << strings::format(
      "weights streamed: %llu bytes (resident after the first run), "
      "images in flight (peak): %llu\n",
      static_cast<unsigned long long>(run_stats.weight_bytes_streamed),
      static_cast<unsigned long long>(run_stats.images_in_flight_hwm));
  const std::vector<dataflow::InstanceUtilization>& utilization =
      pool.value().utilization();
  for (std::size_t i = 0; i < utilization.size(); ++i) {
    out << strings::format(
        "instance %zu utilization: %llu images in %llu chunks, "
        "%.3f ms busy\n",
        i, static_cast<unsigned long long>(utilization[i].images),
        static_cast<unsigned long long>(utilization[i].chunks),
        utilization[i].busy_seconds * 1e3);
  }
  return worst == 0.0F ? 0 : 1;
}

int cmd_serve_bench(const Args& args, std::ostream& out, std::ostream& err) {
  const auto model_name = args.get("model");
  if (!model_name.has_value()) {
    err << "serve-bench requires --model\n";
    return 2;
  }
  auto model = nn::make_model(*model_name);
  if (!model.is_ok()) {
    err << model.status().to_string() << "\n";
    return 1;
  }
  auto data_type = nn::parse_data_type(args.get_or("data-type", "float32"));
  if (!data_type.is_ok()) {
    err << data_type.status().to_string() << "\n";
    return 2;
  }
  auto weights = nn::initialize_weights(model.value(), 1);
  if (!weights.is_ok()) {
    err << weights.status().to_string() << "\n";
    return 1;
  }
  hw::HwNetwork hw_net = hw::with_default_annotations(model.value());
  hw_net.hw.data_type = data_type.value();
  auto plan = hw::plan_accelerator(hw_net);
  if (!plan.is_ok()) {
    err << plan.status().to_string() << "\n";
    return 1;
  }
  const std::size_t instances = static_cast<std::size_t>(
      std::strtoull(args.get_or("instances", "4").c_str(), nullptr, 10));
  if (instances == 0) {
    err << "--instances must be >= 1\n";
    return 2;
  }
  auto pool = dataflow::ExecutorPool::create(plan.value(), weights.value(),
                                             instances);
  if (!pool.is_ok()) {
    err << pool.status().to_string() << "\n";
    return 1;
  }
  auto accel = serve::make_service_model(pool.value().plan());
  if (!accel.is_ok()) {
    err << accel.status().to_string() << "\n";
    return 1;
  }
  serve::LoadGenOptions options;
  options.rate_rps = std::strtod(args.get_or("rate", "0").c_str(), nullptr);
  options.requests = static_cast<std::size_t>(
      std::strtoull(args.get_or("requests", "512").c_str(), nullptr, 10));
  options.seed = std::strtoull(args.get_or("seed", "2024").c_str(), nullptr, 10);
  options.batcher.max_batch = static_cast<std::size_t>(
      std::strtoull(args.get_or("max-batch", "32").c_str(), nullptr, 10));
  options.batcher.preferred_batch = static_cast<std::size_t>(std::strtoull(
      args.get_or("preferred-batch", "0").c_str(), nullptr, 10));
  options.batcher.max_delay_seconds =
      std::strtod(args.get_or("max-delay-ms", "25").c_str(), nullptr) * 1e-3;
  auto report = serve::run_open_loop(pool.value(), accel.value(), options);
  if (!report.is_ok()) {
    err << report.status().to_string() << "\n";
    return 1;
  }
  const serve::LoadGenReport& r = report.value();
  out << strings::format(
      "%s (%s) on %zu instances, offered %.1f req/s, %zu requests "
      "(%zu completed, %zu rejected)\n",
      model.value().name().c_str(),
      std::string(nn::to_string(data_type.value())).c_str(), instances,
      r.offered_rps, r.requests, r.completed, r.rejected);
  out << strings::format(
      "  serial  per-request: %8.1f img/s   p50 %7.2f ms   p99 %7.2f ms\n",
      r.serial_images_per_second, r.serial_latency.p50_ms,
      r.serial_latency.p99_ms);
  out << strings::format(
      "  dynamic batching:    %8.1f img/s   p50 %7.2f ms   p99 %7.2f ms\n",
      r.images_per_second, r.latency.p50_ms, r.latency.p99_ms);
  out << strings::format(
      "  %zu batches (mean %.1f, largest %zu), speedup %.2fx\n", r.batches,
      r.mean_batch, r.largest_batch, r.speedup);
  out << strings::format(
      "  p99 bound: max_delay %.1f ms + batch service %.2f ms = %.2f ms (%s)\n",
      options.batcher.max_delay_seconds * 1e3,
      r.max_batch_service_seconds * 1e3, r.p99_bound_ms,
      r.p99_within_bound ? "met" : "VIOLATED");
  out << strings::format("  demux vs direct run_batch: %s\n",
                         r.bitexact_vs_direct ? "bit-exact" : "MISMATCH");
  return r.bitexact_vs_direct && r.p99_within_bound ? 0 : 1;
}

int cmd_fig5(const Args& args, std::ostream& out, std::ostream& err) {
  const auto model_name = args.get("model");
  if (!model_name.has_value()) {
    err << "fig5 requires --model\n";
    return 2;
  }
  auto model = nn::make_model(*model_name);
  if (!model.is_ok()) {
    err << model.status().to_string() << "\n";
    return 1;
  }
  hw::HwNetwork net = hw::with_default_annotations(
      model.value(), args.get_or("board", "aws-f1"), 200.0);
  auto point = hw::evaluate_design_point(net);
  if (!point.is_ok()) {
    err << point.status().to_string() << "\n";
    return 1;
  }
  const sim::AcceleratorSim accel =
      sim::build_accelerator_sim(point.value().performance);
  out << strings::format("%s @ %.0f MHz, %zu pipeline stages\n",
                         model.value().name().c_str(),
                         point.value().achieved_mhz, accel.stages.size());
  out << strings::format("%8s %16s\n", "batch", "mean ms/image");
  for (const std::size_t batch : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    auto bp = sim::simulate_batch(accel, batch);
    if (!bp.is_ok()) {
      err << bp.status().to_string() << "\n";
      return 1;
    }
    out << strings::format("%8zu %16.4f\n", batch, bp.value().mean_ms_per_image);
  }
  return 0;
}

int cmd_describe_afi(const Args& args, std::ostream& out, std::ostream& err) {
  const auto id = args.get("id");
  if (!id.has_value()) {
    err << "describe-afi requires --id\n";
    return 2;
  }
  cloud::ObjectStore store(args.get_or("aws-root", "/tmp/condor-aws"));
  cloud::AfiService service(store);
  auto record = service.describe_fpga_image(*id);
  if (!record.is_ok()) {
    err << record.status().to_string() << "\n";
    return 1;
  }
  out << strings::format("%s  %s  state=%s  source=s3://%s/%s\n",
                         record.value().afi_id.c_str(),
                         record.value().agfi_id.c_str(),
                         std::string(cloud::to_string(record.value().state)).c_str(),
                         record.value().source_bucket.c_str(),
                         record.value().source_key.c_str());
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    return usage(err);
  }
  const std::string& command = args.front();
  const Args parsed(args.begin() + 1, args.end(), err);
  if (!parsed.ok()) {
    return usage(err);
  }
  if (command == "boards") {
    return cmd_boards(out);
  }
  if (command == "summary") {
    return cmd_summary(parsed, out, err);
  }
  if (command == "build") {
    return cmd_build(parsed, out, err);
  }
  if (command == "dse") {
    return cmd_dse(parsed, out, err);
  }
  if (command == "run") {
    return cmd_run(parsed, out, err);
  }
  if (command == "fig5") {
    return cmd_fig5(parsed, out, err);
  }
  if (command == "validate") {
    return cmd_validate(parsed, out, err);
  }
  if (command == "serve-bench") {
    return cmd_serve_bench(parsed, out, err);
  }
  if (command == "describe-afi") {
    return cmd_describe_afi(parsed, out, err);
  }
  err << "unknown command '" << command << "'\n";
  return usage(err);
}

}  // namespace condor::cli
