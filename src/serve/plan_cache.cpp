#include "serve/plan_cache.hpp"

#include <algorithm>
#include <cstring>

#include "hw/hw_ir.hpp"

namespace condor::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

void mix(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffU;
    hash *= kFnvPrime;
  }
}

void mix_bytes(std::uint64_t& hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t fingerprint(const nn::Network& network) {
  std::uint64_t hash = kFnvOffset;
  mix(hash, network.layer_count());
  for (std::size_t i = 0; i < network.layer_count(); ++i) {
    const nn::LayerSpec& layer = network.layers()[i];
    mix(hash, static_cast<std::uint64_t>(layer.kind));
    mix(hash, layer.input_channels);
    mix(hash, layer.input_height);
    mix(hash, layer.input_width);
    mix(hash, layer.kernel_h);
    mix(hash, layer.kernel_w);
    mix(hash, layer.stride);
    mix(hash, layer.pad);
    mix(hash, layer.num_output);
    mix(hash, layer.has_bias ? 1 : 0);
    mix(hash, static_cast<std::uint64_t>(layer.pool_method));
    mix(hash, static_cast<std::uint64_t>(layer.activation));
    // Producer wiring by index, with the implicit-chain rule applied, so a
    // chain written with explicit `inputs` hashes identically to one
    // relying on declaration order.
    const auto producers = network.producers(i);
    if (producers.is_ok()) {
      for (const std::size_t producer : producers.value()) {
        mix(hash, producer + 1);
      }
    }
    mix(hash, 0xfeU);  // layer separator
  }
  return hash;
}

std::uint64_t fingerprint(const nn::WeightStore& weights) {
  std::uint64_t hash = kFnvOffset;
  for (const auto& [name, params] : weights.all()) {
    mix_bytes(hash, name.data(), name.size());
    for (const Tensor* tensor : {&params.weights, &params.bias}) {
      mix(hash, tensor->size());
      mix_bytes(hash, tensor->data().data(),
                tensor->size() * sizeof(float));
    }
  }
  return hash;
}

std::uint64_t plan_fingerprint(const hw::HwNetwork& network) {
  std::uint64_t hash = kFnvOffset;
  mix_bytes(hash, network.hw.board_id.data(), network.hw.board_id.size());
  // Quantized to kHz so the digest is stable across formatting round trips.
  mix(hash, static_cast<std::uint64_t>(network.hw.target_frequency_mhz * 1e3));
  mix(hash, network.hw.layers.size());
  for (const hw::LayerHw& annot : network.hw.layers) {
    mix(hash, annot.parallel_in);
    mix(hash, annot.parallel_out);
    // +2 keeps the unfused (-1) marker distinct from group 0 and from the
    // layer separator.
    mix(hash, static_cast<std::uint64_t>(annot.pe_group + 2));
    mix(hash, 0xfdU);  // layer separator
  }
  return hash;
}

Result<std::shared_ptr<PlanCache::Entry>> PlanCache::get_or_create(
    const hw::HwNetwork& hw_network, const nn::WeightStore& weights,
    nn::DataType data_type, std::size_t instances) {
  Key key;
  key.network_hash = fingerprint(hw_network.net);
  key.weights_hash = fingerprint(weights);
  key.plan_hash = plan_fingerprint(hw_network);
  key.data_type = data_type;
  key.instances = instances;

  std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (Slot& slot : slots_) {
    if (slot.key == key) {
      slot.last_used = tick_;
      ++stats_.hits;
      return slot.entry;
    }
  }
  ++stats_.misses;

  // Compile: plan the accelerator from the caller's annotations, replicate
  // the executor pool over the shared immutable plan + weights.
  hw::HwNetwork hw_net = hw_network;
  hw_net.hw.data_type = data_type;
  CONDOR_ASSIGN_OR_RETURN(hw::AcceleratorPlan plan,
                          hw::plan_accelerator(hw_net));
  auto shared_plan = std::make_shared<const hw::AcceleratorPlan>(std::move(plan));
  auto shared_weights = std::make_shared<const nn::WeightStore>(weights);
  CONDOR_ASSIGN_OR_RETURN(
      dataflow::ExecutorPool pool,
      dataflow::ExecutorPool::create(shared_plan, shared_weights, instances));

  auto entry = std::make_shared<Entry>();
  entry->plan = std::move(shared_plan);
  entry->pool = std::make_shared<dataflow::ExecutorPool>(std::move(pool));

  if (slots_.size() >= capacity_) {
    auto lru = std::min_element(slots_.begin(), slots_.end(),
                                [](const Slot& a, const Slot& b) {
                                  return a.last_used < b.last_used;
                                });
    slots_.erase(lru);
    ++stats_.evictions;
  }
  slots_.push_back(Slot{key, entry, tick_});
  return entry;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace condor::serve
