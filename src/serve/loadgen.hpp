// Open-loop load generator for the serving layer.
//
// Drives Poisson arrivals at a configured offered rate through the
// BatcherCore and an ExecutorPool, and reports per-request latency
// (p50/p99) and throughput for two serving policies over the SAME arrival
// sequence:
//
//   * serial   — per-request dispatch: every image runs alone, in arrival
//     order, the way a naive RPC handler would call run_batch(1). A lone
//     image occupies one accelerator instance; the rest of the pool idles.
//   * batched  — the dynamic batcher coalesces queued requests (up to
//     max_batch, bounded by the max_delay deadline) and each batch shards
//     across all pool instances through the chunk-stealing runtime.
//
// Timing runs in the device-time domain: every dispatched batch executes
// functionally through the real ExecutorPool (so outputs are real and the
// demux is checked byte-for-byte against a direct run_batch), while its
// service time comes from the same batch timing LoadedKernel reports —
// sim::simulate_batch over ceil(n/instances) images, i.e. the wall time of
// the concurrent slots. Arrivals, queueing and
// dispatch then advance on that virtual clock, which makes every latency
// figure deterministic for a given seed and independent of the simulation
// host — the same reason multi_slot_scaling reports device-side img/s.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "dataflow/executor_pool.hpp"
#include "serve/batcher.hpp"
#include "sim/accel_sim.hpp"

namespace condor::serve {

struct LoadGenOptions {
  /// Offered Poisson arrival rate (requests per second). 0 = auto: 2.5x
  /// the pool's serial per-request capacity.
  double rate_rps = 0.0;
  std::size_t requests = 512;
  std::uint64_t seed = 2024;
  BatcherOptions batcher;
  /// Tenant set; requests round-robin across tenants. Empty = one
  /// interactive tenant with a queue deep enough to avoid rejects.
  std::vector<TenantConfig> tenants;
};

struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Computes the summary of a latency sample (milliseconds). Percentiles
/// use the nearest-rank method.
LatencySummary summarize_latencies(std::vector<double> latencies_ms);

struct LoadGenReport {
  double offered_rps = 0.0;
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;

  // Dynamic batching results.
  double makespan_seconds = 0.0;  ///< virtual: first arrival -> last completion
  double images_per_second = 0.0;
  LatencySummary latency;
  std::size_t batches = 0;
  double mean_batch = 0.0;
  std::size_t largest_batch = 0;
  double max_batch_service_seconds = 0.0;

  // Serial per-request baseline over the same arrivals.
  double serial_images_per_second = 0.0;
  LatencySummary serial_latency;
  double serial_service_seconds = 0.0;  ///< device time of one lone image

  double speedup = 0.0;  ///< images_per_second / serial_images_per_second

  /// Demux check: every batched request's output byte-identical to a
  /// direct pool.run_batch over the same inputs in arrival order.
  bool bitexact_vs_direct = false;

  /// Tail bound the batcher guarantees: max_delay + one (largest) batch
  /// service time.
  double p99_bound_ms = 0.0;
  bool p99_within_bound = false;
};

/// Builds the device-time service model for `plan` (simulated synthesis +
/// analytical per-PE service times at the achieved clock).
Result<sim::AcceleratorSim> make_service_model(const hw::AcceleratorPlan& plan);

/// Runs the open-loop experiment. `pool` supplies both the functional
/// outputs and the instance count of the service model.
Result<LoadGenReport> run_open_loop(dataflow::ExecutorPool& pool,
                                    const sim::AcceleratorSim& accel,
                                    const LoadGenOptions& options);

}  // namespace condor::serve
