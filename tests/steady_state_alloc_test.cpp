// Zero-allocation steady state.
//
// The module bodies wrap each firing in an
// common::AllocProbe::Scope; this binary overrides the global allocation
// functions to notify the probe, so once a counter is armed every heap
// allocation performed *inside those scopes* is counted. The contract under
// test: the first run_batch calls may allocate freely (scratch arenas grow
// to their high-water marks, the design compiles its resident weights), but
// after warmup further run_batch calls perform no per-image heap
// allocations in the module bodies — for every datapath and at
// parallel_out > 1. The plan's
// parallel_out is a hardware degree: every PE pass runs full-width on the
// module's own thread, so the *ParallelLanes cases check the very same
// bodies with nothing paused.
//
// Allocations outside the probed scopes (executor bookkeeping, ThreadPool
// task plumbing) and the output tensors the output mover hands to the
// caller (paused) are intentionally not counted: the zero-allocation
// guarantee covers the streaming module bodies, which is where per-image
// work happens.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/alloc_probe.hpp"
#include "dataflow/executor.hpp"
#include "hw/accel_plan.hpp"
#include "nn/models.hpp"
#include "nn/numeric.hpp"
#include "test_util.hpp"

// Global allocation hooks: forward to malloc/free and tell the probe. Kept
// deliberately minimal — no logging, no reentrancy hazards. Never inlined:
// an inlined free() next to a new-expression reads to GCC as a mismatched
// new/delete pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  condor::common::AllocProbe::notify();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace condor {
namespace {

/// Builds an executor for `network` at `data_type` / `parallel_out`, runs
/// two warmup batches, then counts module-body allocations of a third.
/// Also asserts the weight-residency contract: the cold run latches weight
/// bytes, every warm run latches exactly zero. `fuse_chain` > 1 clusters
/// blocks of that many consecutive feature-extraction layers onto fused
/// PEs (the network must be a linear chain), exercising the PE-local
/// fused passes — whose grow-only double buffers must hold the
/// same zero-allocation and zero-weight-traffic contract warm.
void expect_steady_state_allocates_nothing(const nn::Network& network,
                                           nn::DataType data_type,
                                           std::size_t parallel_out,
                                           std::uint64_t seed,
                                           std::size_t fuse_chain = 1) {
  auto weights = nn::initialize_weights(network, seed);
  ASSERT_TRUE(weights.is_ok()) << weights.status().to_string();

  hw::HwNetwork hw_net = hw::with_default_annotations(network);
  hw_net.hw.data_type = data_type;
  for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
    hw_net.hw.layers[i].parallel_out = parallel_out;
  }
  if (fuse_chain > 1) {
    int group = 0;
    std::size_t i = 1;
    const auto is_feature = [&](std::size_t index) {
      const nn::LayerSpec& layer = network.layers()[index];
      return layer.is_feature_extraction() ||
             layer.kind == nn::LayerKind::kActivation;
    };
    while (i < network.layer_count()) {
      if (!is_feature(i)) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end + 1 < network.layer_count() && is_feature(end + 1)) {
        ++end;
      }
      for (std::size_t u = i; u <= end; u += fuse_chain) {
        const std::size_t span = std::min(fuse_chain, end - u + 1);
        if (span < 2) {
          continue;
        }
        for (std::size_t m = 0; m < span; ++m) {
          hw_net.hw.layers[u + m].pe_group = group;
        }
        ++group;
      }
      i = end + 1;
    }
    ASSERT_GT(group, 0) << "fuse_chain produced no fused groups";
  }
  ASSERT_TRUE(hw_net.validate().is_ok()) << hw_net.validate().to_string();
  auto plan = hw::plan_accelerator(hw_net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();

  auto executor =
      dataflow::AcceleratorExecutor::create(plan.value(), weights.value());
  ASSERT_TRUE(executor.is_ok()) << executor.status().to_string();

  const auto inputs = testing::random_inputs(network, 2, seed + 1);

  // Warmup: scratch arenas grow to their high-water marks and the design
  // compiles its packed / quantized resident weights. Two rounds so the second round's own
  // growth (if any) would already have been flushed out. The first round is
  // counted too, as a canary: it MUST allocate (scratch growth), proving
  // the operator-new hook is live and the later zero reading is meaningful.
  std::atomic<std::size_t> warmup_allocations{0};
  std::atomic<std::size_t>* prev0 = common::AllocProbe::arm(&warmup_allocations);
  {
    auto outputs = executor.value().run_batch(inputs);
    common::AllocProbe::arm(prev0);
    ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  }
  ASSERT_GT(warmup_allocations.load(), 0U)
      << "cold run must allocate scratch; is the allocation hook linked?";
  // The cold run is also the one-time weight load.
  EXPECT_GT(executor.value().last_run_stats().weight_bytes_streamed, 0U)
      << "first run must latch the resident weight slices";
  {
    auto outputs = executor.value().run_batch(inputs);
    ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
    EXPECT_EQ(executor.value().last_run_stats().weight_bytes_streamed, 0U)
        << "warm run re-streamed weights despite residency";
  }

  std::atomic<std::size_t> allocations{0};
  std::atomic<std::size_t>* prev = common::AllocProbe::arm(&allocations);
  auto outputs = executor.value().run_batch(inputs);
  common::AllocProbe::arm(prev);
  ASSERT_TRUE(outputs.is_ok()) << outputs.status().to_string();
  EXPECT_EQ(allocations.load(), 0U)
      << "module bodies allocated in steady state (" << allocations.load()
      << " allocations)";
  EXPECT_EQ(executor.value().last_run_stats().weight_bytes_streamed, 0U)
      << "steady-state run re-streamed weights despite residency";
  if (fuse_chain > 1) {
    EXPECT_GT(executor.value().last_run_stats().fused_local_passes, 0U)
        << "fused clustering did not run any PE-local fused pass";
  }
}

TEST(SteadyStateAlloc, ProbeCountsOnlyInsideArmedScopes) {
  // Untracked: no scope.
  // Direct operator-new calls: new-expressions may legally be elided by the
  // compiler, plain function calls may not.
  std::atomic<std::size_t> count{0};
  std::atomic<std::size_t>* prev = common::AllocProbe::arm(&count);
  ::operator delete(::operator new(16));
  EXPECT_EQ(count.load(), 0U);
  {
    const common::AllocProbe::Scope scope;
    ::operator delete(::operator new(16));
  }
  EXPECT_EQ(count.load(), 1U);
  {
    const common::AllocProbe::Scope scope;
    const common::AllocProbe::Pause pause;
    ::operator delete(::operator new(16));
  }
  EXPECT_EQ(count.load(), 1U) << "paused scope must not count";
  common::AllocProbe::arm(prev);
  // Disarmed again: scopes no longer count.
  {
    const common::AllocProbe::Scope scope;
    ::operator delete(::operator new(16));
  }
  EXPECT_EQ(count.load(), 1U);
}

TEST(SteadyStateAlloc, LeNetFloat32) {
  expect_steady_state_allocates_nothing(nn::make_lenet(),
                                        nn::DataType::kFloat32, 1, 41);
}

TEST(SteadyStateAlloc, LeNetFixed16) {
  expect_steady_state_allocates_nothing(nn::make_lenet(),
                                        nn::DataType::kFixed16, 1, 43);
}

TEST(SteadyStateAlloc, LeNetFixed8) {
  expect_steady_state_allocates_nothing(nn::make_lenet(),
                                        nn::DataType::kFixed8, 1, 47);
}

TEST(SteadyStateAlloc, TinyNetFloat32ParallelLanes) {
  testing::TinyNetConfig config;
  config.in_channels = 2;
  config.conv_outputs = 6;
  config.pad = 1;
  config.with_pool = true;
  config.with_fc = true;
  expect_steady_state_allocates_nothing(testing::make_tiny_net(config),
                                        nn::DataType::kFloat32, 2, 53);
}

TEST(SteadyStateAlloc, TinyNetFixed16ParallelLanes) {
  testing::TinyNetConfig config;
  config.in_channels = 2;
  config.conv_outputs = 6;
  config.with_fc = true;
  expect_steady_state_allocates_nothing(testing::make_tiny_net(config),
                                        nn::DataType::kFixed16, 2, 59);
}

// Fused clusterings: the PE-local fused-pass buffers are grow-only and
// double-buffered by swap, so a warm fused run must allocate nothing and
// move zero weight bytes — same contract as the round-trip path.
TEST(SteadyStateAlloc, LeNetFusedPairsFloat32) {
  expect_steady_state_allocates_nothing(nn::make_lenet(),
                                        nn::DataType::kFloat32, 1, 73,
                                        /*fuse_chain=*/2);
}

TEST(SteadyStateAlloc, LeNetFusedWholeStageFixed8) {
  expect_steady_state_allocates_nothing(nn::make_lenet(),
                                        nn::DataType::kFixed8, 1, 79,
                                        /*fuse_chain=*/4);
}

TEST(SteadyStateAlloc, TinyNetFusedFixed16ParallelLanes) {
  testing::TinyNetConfig config;
  config.in_channels = 2;
  config.conv_outputs = 6;
  config.with_pool = true;
  config.with_fc = true;
  expect_steady_state_allocates_nothing(testing::make_tiny_net(config),
                                        nn::DataType::kFixed16, 2, 83,
                                        /*fuse_chain=*/2);
}

// DAG topologies: the join and the producers that feed several out-edges
// must hold the same zero-allocation steady-state contract as the
// linear-chain modules.
TEST(SteadyStateAlloc, TinyResnetFloat32) {
  expect_steady_state_allocates_nothing(nn::make_tiny_resnet(),
                                        nn::DataType::kFloat32, 1, 61);
}

TEST(SteadyStateAlloc, TinyResnetFixed16) {
  expect_steady_state_allocates_nothing(nn::make_tiny_resnet(),
                                        nn::DataType::kFixed16, 1, 67);
}

TEST(SteadyStateAlloc, LenetSkipFixed8) {
  expect_steady_state_allocates_nothing(nn::make_lenet_skip(),
                                        nn::DataType::kFixed8, 1, 71);
}

}  // namespace
}  // namespace condor
