// Warm plan cache for repeat serving sessions.
//
// Opening a session costs a full compile: hardware annotation, accelerator
// planning, simulated synthesis, executor-pool construction, and (cold
// cloud paths) an AFI load. None of that depends on the session — only on
// the network structure, the parameter bytes, the numeric datapath and the
// replica count — so repeat sessions for the same model must skip it. The
// cache keys entries by (network fingerprint, data_type, instances), where
// the fingerprint digests the topology and the weight bytes, and hands out
// shared_ptr entries: the pool inside holds the plan and the WeightStore as
// shared_ptr<const>, so N concurrent sessions share one plan and one copy of
// the weights. Each of the pool's replicas still compiles its own design and
// derives its own resident weight blocks on its first run. Eviction is LRU;
// an entry still referenced by a session stays alive through its shared_ptr
// even after eviction.
//
// Cloud deployments can also pin the AFI id a plan was staged under on the
// entry (`afi_id`), so a warm hit skips the create-fpga-image round trip
// as well — the "warm AFI" half of the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"
#include "nn/weights.hpp"

namespace condor::serve {

/// Structural digest of a network: layer kinds, geometry, activations and
/// producer wiring (FNV-1a 64). Names do not contribute — two identically
/// shaped networks share hardware regardless of labeling.
std::uint64_t fingerprint(const nn::Network& network);

/// Digest of the parameter bytes (per-layer shapes + raw values). Folded
/// into the cache key so a weight update is a compile, not a stale hit.
std::uint64_t fingerprint(const nn::WeightStore& weights);

/// Digest of the plan parameters that shape the hardware beyond the
/// topology: board preset, target clock and the per-layer parallel_in /
/// parallel_out / pe_group (fusion clustering) annotations. Folded into the
/// cache key so tenants requesting differently fused or parallelized
/// designs of the same network never collide on one compiled plan.
std::uint64_t plan_fingerprint(const hw::HwNetwork& network);

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class PlanCache {
 public:
  struct Entry {
    std::shared_ptr<const hw::AcceleratorPlan> plan;
    std::shared_ptr<dataflow::ExecutorPool> pool;
    /// AFI this plan is staged under, when a cloud deployment pinned one.
    std::string afi_id;
  };

  explicit PlanCache(std::size_t capacity = 8)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the warm entry for (hw_network, weights, data_type,
  /// instances), or compiles plan + pool on a miss and caches it (evicting
  /// the least recently used entry at capacity). Thread-safe; the compile
  /// runs under the cache lock so concurrent sessions for the same key
  /// compile once. The caller supplies the hardware annotations (board,
  /// clock, parallelism, fusion clustering; hw::with_default_annotations
  /// puts every layer on its own PE), and their digest joins the key — two
  /// tenants serving the same topology with different fused designs get
  /// distinct compiled plans. `hw_network.hw.data_type` is overridden by
  /// `data_type` (it is part of the key either way).
  Result<std::shared_ptr<Entry>> get_or_create(const hw::HwNetwork& hw_network,
                                               const nn::WeightStore& weights,
                                               nn::DataType data_type,
                                               std::size_t instances);

  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Key {
    std::uint64_t network_hash = 0;
    std::uint64_t weights_hash = 0;
    /// Digest of the plan parameters (plan_fingerprint): board preset,
    /// clock, parallelism and fusion clustering annotations.
    std::uint64_t plan_hash = 0;
    nn::DataType data_type = nn::DataType::kFloat32;
    std::size_t instances = 1;

    bool operator==(const Key& other) const noexcept {
      return network_hash == other.network_hash &&
             weights_hash == other.weights_hash &&
             plan_hash == other.plan_hash && data_type == other.data_type &&
             instances == other.instances;
    }
  };
  struct Slot {
    Key key;
    std::shared_ptr<Entry> entry;
    std::uint64_t last_used = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
  PlanCacheStats stats_;
};

}  // namespace condor::serve
