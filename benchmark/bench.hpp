// Shared pieces of condor_bench: the clock, sample statistics,
// seeded inputs, the golden/quantized oracles and the metric records every
// workload returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/hw_ir.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"
#include "nn/weights.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace condor::bench {

/// Weights are part of the model, so every workload draws them from this
/// fixed seed; --seed only varies inputs, arrivals and image order.
inline constexpr std::uint64_t kWeightSeed = 7;

/// Times the system's set-up is repeated in one run; setup_s is the median.
/// A set-up takes 30-100 ms, so 31 of them cost at most about 3 s a run.
inline constexpr int kSetupRepeats = 31;

/// Seconds on the steady clock since the process started.
double now_s();
void sleep_until_s(double t);

/// Quantile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
double mean(const std::vector<double>& sample);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Outcome counts of one run. `failed` counts rejected, errored and wrong
/// operations; `mismatched` the outputs that differ from their oracle.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> mismatched{0};
  /// Broken contracts other than output bytes (weight bytes on warm runs).
  std::atomic<std::uint64_t> gate_failures{0};

  /// Counts one attempted operation: `served` is false when it was
  /// rejected or errored, `exact` false when its output differs.
  void record(bool served, bool exact = true);
};

/// What one workload run reports.
struct Report {
  /// setup_s, latency_p50_ms, throughput_per_s.
  Metrics end_to_end;
  /// Printed beside the gated metrics (p90, p99, sample counts), never
  /// gated.
  Metrics info;
  /// Per-layer metrics measured in this run (traced runs only).
  Metrics layers;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Non-null in the traced run.
  Trace* trace = nullptr;
};

/// The end-to-end metrics, in BENCHMARK.json order.
Metrics end_to_end_metrics(double setup_s, double p50_ms,
                           double throughput_per_s);

/// The pool.* per-layer metrics of a window of `wall_s` seconds holding
/// `batches` run_batch calls, from ExecutorPool::utilization() readings
/// taken before and after it.
Metrics pool_metrics(const std::vector<dataflow::InstanceUtilization>& before,
                     const std::vector<dataflow::InstanceUtilization>& after,
                     double wall_s, std::size_t batches,
                     const std::vector<double>& run_batch_ms);

/// `count` CHW images with elements uniform in [-1, 1), fixed by `seed`.
std::vector<Tensor> make_images(const Shape& shape, std::size_t count,
                                std::uint64_t seed);

/// Byte equality of shape and data: the only accepted oracle match.
bool same_bytes(const Tensor& a, const Tensor& b);

/// Oracle output of every image: nn::ReferenceEngine for float32 and
/// nn::QuantizedEngine for the fixed-point datapaths, on two threads.
Result<std::vector<Tensor>> oracle_outputs(const nn::Network& network,
                                           const nn::WeightStore& weights,
                                           nn::DataType type,
                                           const std::vector<Tensor>& images);

/// A zoo model (nn::make_model name) and its weights from the fixed seed.
struct Model {
  nn::Network network;
  nn::WeightStore weights;
};
Result<Model> make_model(std::string_view name);

/// The design hw::explore picks with fusion degrees up to 4 (aws-f1).
Result<hw::HwNetwork> explored_design(const nn::Network& network);

/// Runs `setup` kSetupRepeats times and returns the median seconds of one
/// set-up; the state the last call built is what the run measures.
template <typename Setup>
Result<double> repeated_setup(Trace* trace, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double begin = now_s();
    CONDOR_RETURN_IF_ERROR(setup());
    const double end = now_s();
    seconds.push_back(end - begin);
    if (trace != nullptr) {
      trace->add("setup", begin, end, static_cast<std::uint64_t>(i));
    }
  }
  return quantile(seconds, 0.5);
}

/// Workloads (one per BENCHMARK.json entry).
Result<Report> run_serve_mixed(const RunConfig& config, Tally& tally);
Result<Report> run_offline_fixed8(const RunConfig& config, Tally& tally);
Result<Report> run_stream_b1(const RunConfig& config, Tally& tally);
Result<Report> run_deploy_cold(const RunConfig& config, Tally& tally);

/// The workload-independent per-layer probes of the traced run: executor
/// counters of four designs, the isolated-layer table, kernel rates, the
/// modeled device figures and the validate path.
Result<Metrics> run_layer_probes(Trace& trace, Tally& tally);

}  // namespace condor::bench
