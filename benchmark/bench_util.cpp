#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "nn/quantization.hpp"

namespace condor::bench {
namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      kEpoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(t)));
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  const double rank = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (sample[hi] - sample[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) {
    return 0.0;
  }
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

void Tally::record(bool served, bool exact) {
  attempted.fetch_add(1, std::memory_order_relaxed);
  if (!served || !exact) {
    failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (!exact) {
    mismatched.fetch_add(1, std::memory_order_relaxed);
  }
}

Metrics end_to_end_metrics(double setup_s, double p50_ms,
                           double throughput_per_s) {
  return {{"setup_s", setup_s, "s"},
          {"latency_p50_ms", p50_ms, "ms"},
          {"throughput_per_s", throughput_per_s, "1/s"}};
}

Metrics pool_metrics(const std::vector<dataflow::InstanceUtilization>& before,
                     const std::vector<dataflow::InstanceUtilization>& after,
                     double wall_s, std::size_t batches,
                     const std::vector<double>& run_batch_ms) {
  double busy_s = 0.0;
  double chunks = 0.0;
  std::vector<double> images;
  for (std::size_t i = 0; i < after.size(); ++i) {
    busy_s += after[i].busy_seconds - before[i].busy_seconds;
    chunks += static_cast<double>(after[i].chunks - before[i].chunks);
    images.push_back(static_cast<double>(after[i].images - before[i].images));
  }
  const auto [fewest, most] = std::minmax_element(images.begin(), images.end());
  return {
      {"pool.run_batch_ms.p50", quantile(run_batch_ms, 0.5), "ms"},
      {"pool.busy_frac", busy_s / (static_cast<double>(after.size()) * wall_s),
       "fraction"},
      {"pool.images_imbalance", (*most - *fewest) / mean(images), "fraction"},
      {"pool.chunks_per_batch", chunks / static_cast<double>(batches), "count"},
  };
}

std::vector<Tensor> make_images(const Shape& shape, std::size_t count,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Tensor image(shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    images.push_back(std::move(image));
  }
  return images;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

Result<std::vector<Tensor>> oracle_outputs(const nn::Network& network,
                                           const nn::WeightStore& weights,
                                           nn::DataType type,
                                           const std::vector<Tensor>& images) {
  CONDOR_ASSIGN_OR_RETURN(const nn::QuantizedEngine engine,
                          nn::QuantizedEngine::create(network, weights, type));
  std::vector<Result<Tensor>> outputs(images.size(), Result<Tensor>(Tensor{}));
  ThreadPool pool(2);
  pool.parallel_for(images.size(), [&](std::size_t i) {
    outputs[i] = engine.forward(images[i]);
  });
  std::vector<Tensor> expected;
  expected.reserve(images.size());
  for (Result<Tensor>& output : outputs) {
    if (!output.is_ok()) {
      return output.status();
    }
    expected.push_back(std::move(output).value());
  }
  return expected;
}

Result<Model> make_model(std::string_view name) {
  CONDOR_ASSIGN_OR_RETURN(nn::Network network, nn::make_model(name));
  CONDOR_ASSIGN_OR_RETURN(nn::WeightStore weights,
                          nn::initialize_weights(network, kWeightSeed));
  return Model{std::move(network), std::move(weights)};
}

Result<hw::HwNetwork> explored_design(const nn::Network& network) {
  hw::DseOptions options;
  options.max_fused = 4;
  CONDOR_ASSIGN_OR_RETURN(
      hw::DseResult dse,
      hw::explore(hw::with_default_annotations(network), options));
  return std::move(dse.best.config);
}

}  // namespace condor::bench
