// Tests for the serving layer: BatcherCore admission control and batch
// formation (fake clock, no sleeps), weighted fair scheduling and the
// deadline starvation bound, the warm PlanCache, the threaded Server
// end-to-end demux, and the open-loop load generator.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "dataflow/executor.hpp"
#include "dataflow/executor_pool.hpp"
#include "hls/synthesis.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"
#include "serve/batcher.hpp"
#include "serve/loadgen.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace condor::serve {
namespace {

Tensor tiny_input() { return Tensor(Shape{1, 1, 1}); }

std::vector<TenantConfig> one_tenant(std::size_t capacity = 64) {
  TenantConfig tenant;
  tenant.name = "solo";
  tenant.queue_capacity = capacity;
  return {tenant};
}

// ---- admission control ------------------------------------------------------

TEST(BatcherAdmission, UnknownTenantIsNotFound) {
  BatcherCore core(BatcherOptions{}, one_tenant());
  auto ticket = core.admit(1, tiny_input(), 0.0);
  ASSERT_FALSE(ticket.is_ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kNotFound);
}

TEST(BatcherAdmission, QueueFullRejectsNamingTheTenant) {
  BatcherCore core(BatcherOptions{}, one_tenant(/*capacity=*/2));
  EXPECT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  EXPECT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  auto rejected = core.admit(0, tiny_input(), 0.0);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("'solo'"), std::string::npos)
      << rejected.status().to_string();
  EXPECT_NE(rejected.status().message().find("queue full"), std::string::npos);
  EXPECT_EQ(core.tenant_counters(0).admitted, 2u);
  EXPECT_EQ(core.tenant_counters(0).rejected, 1u);
}

TEST(BatcherAdmission, GlobalInflightCapRejectsAndCompleteReleases) {
  BatcherOptions options;
  options.max_batch = 4;
  options.max_inflight = 3;
  BatcherCore core(options, one_tenant(/*capacity=*/64));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  }
  auto rejected = core.admit(0, tiny_input(), 0.0);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("max in-flight"),
            std::string::npos);

  // The cap counts admitted-but-incomplete requests: dispatching alone does
  // not release slots, completion does.
  std::optional<Batch> batch = core.form_batch(0.0, /*flush=*/true);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 3u);
  EXPECT_FALSE(core.admit(0, tiny_input(), 0.0).is_ok());
  core.complete(*batch);
  EXPECT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
}

TEST(BatcherAdmission, TicketsAreUniqueAndMonotonic) {
  BatcherCore core(BatcherOptions{}, one_tenant());
  const std::uint64_t a = core.admit(0, tiny_input(), 0.0).value();
  const std::uint64_t b = core.admit(0, tiny_input(), 0.0).value();
  EXPECT_LT(a, b);
}

// ---- batch formation (fake clock) -------------------------------------------

TEST(BatcherFormation, NotDueBeforePreferredDepthOrDeadline) {
  BatcherOptions options;
  options.max_batch = 16;
  options.preferred_batch = 4;
  options.max_delay_seconds = 0.010;
  BatcherCore core(options, one_tenant());
  ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  EXPECT_FALSE(core.batch_due(0.0));
  EXPECT_FALSE(core.form_batch(0.0).has_value());
  // ... but the deadline makes it due without any more arrivals.
  EXPECT_FALSE(core.batch_due(0.0099));
  EXPECT_TRUE(core.batch_due(0.010));
  std::optional<Batch> batch = core.form_batch(0.010);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 1u);
  EXPECT_TRUE(batch->deadline_triggered);
  EXPECT_EQ(core.counters().deadline_batches, 1u);
}

TEST(BatcherFormation, PreferredDepthDispatchesEarly) {
  BatcherOptions options;
  options.max_batch = 16;
  options.preferred_batch = 4;
  options.max_delay_seconds = 0.010;
  BatcherCore core(options, one_tenant());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  }
  EXPECT_TRUE(core.batch_due(0.0));
  std::optional<Batch> batch = core.form_batch(0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 4u);
  EXPECT_FALSE(batch->deadline_triggered);
}

TEST(BatcherFormation, MaxBatchCapsAndLeavesTheRestQueued) {
  BatcherOptions options;
  options.max_batch = 4;
  BatcherCore core(options, one_tenant(/*capacity=*/64));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  }
  std::optional<Batch> batch = core.form_batch(0.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 4u);
  EXPECT_EQ(core.queued(), 6u);
  // FIFO within the tenant: oldest tickets ride first.
  EXPECT_EQ(batch->requests.front().id, 1u);
  EXPECT_EQ(batch->requests.back().id, 4u);
}

TEST(BatcherFormation, NextDeadlineTracksTheOldestQueuedRequest) {
  BatcherOptions options;
  options.max_delay_seconds = 0.010;
  BatcherCore core(options, one_tenant());
  EXPECT_FALSE(core.next_deadline().has_value());
  ASSERT_TRUE(core.admit(0, tiny_input(), 1.0).is_ok());
  ASSERT_TRUE(core.admit(0, tiny_input(), 2.0).is_ok());
  ASSERT_TRUE(core.next_deadline().has_value());
  EXPECT_DOUBLE_EQ(*core.next_deadline(), 1.010);
}

// ---- weighted fair scheduling -----------------------------------------------

std::vector<TenantConfig> interactive_and_bulk() {
  TenantConfig interactive;
  interactive.name = "chat";
  interactive.qos = QosClass::kInteractive;  // default weight 8
  interactive.queue_capacity = 256;
  TenantConfig bulk;
  bulk.name = "offline";
  bulk.qos = QosClass::kBulk;  // default weight 1
  bulk.queue_capacity = 256;
  return {interactive, bulk};
}

TEST(BatcherFairness, BatchSlotsSplitByWeightUnderContention) {
  BatcherOptions options;
  options.max_batch = 18;
  options.preferred_batch = 1;
  options.max_delay_seconds = 1.0;  // no deadline interference
  BatcherCore core(options, interactive_and_bulk());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
    ASSERT_TRUE(core.admit(1, tiny_input(), 0.0).is_ok());
  }
  std::optional<Batch> batch = core.form_batch(0.0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 18u);
  std::size_t interactive = 0;
  std::size_t bulk = 0;
  for (const Request& request : batch->requests) {
    (request.tenant == 0 ? interactive : bulk)++;
  }
  // Stride scheduling at weights 8:1 over 18 slots is deterministic:
  // 16 interactive picks, 2 bulk picks — proportional, never exclusive.
  EXPECT_EQ(interactive, 16u);
  EXPECT_EQ(bulk, 2u);
}

TEST(BatcherFairness, IdleTenantBanksNoCatchUpCredit) {
  BatcherOptions options;
  options.max_batch = 12;
  options.preferred_batch = 1;
  options.max_delay_seconds = 10.0;
  BatcherCore core(options, interactive_and_bulk());
  // Bulk runs alone for a while (its pass advances far beyond zero).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(core.admit(1, tiny_input(), 0.0).is_ok());
  }
  for (int b = 0; b < 2; ++b) {
    auto batch = core.form_batch(0.0);
    ASSERT_TRUE(batch.has_value());
    core.complete(*batch);
  }
  // The interactive tenant wakes up. The stride lag fix starts it at the
  // scheduler's current position: it dominates the next batch by weight
  // (8:1), but the bank of idle time buys it no exclusive run — the
  // lingering bulk backlog keeps drawing its proportional slots.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(core.admit(0, tiny_input(), 0.0).is_ok());
  }
  auto batch = core.form_batch(0.0);
  ASSERT_TRUE(batch.has_value());
  std::size_t interactive = 0;
  std::size_t bulk = 0;
  for (const Request& request : batch->requests) {
    (request.tenant == 0 ? interactive : bulk)++;
  }
  EXPECT_EQ(batch->requests.size(), 12u);
  EXPECT_GE(interactive, 9u);
  EXPECT_GE(bulk, 1u);
}

// Satellite (c): a flooding bulk tenant must not delay the interactive
// tenant past the deadline bound. Driven entirely on a fake virtual clock —
// no threads, no sleeps — with the backend modeled as busy for a fixed
// service time per batch.
TEST(BatcherFairness, FloodedBulkNeverDelaysInteractivePastDeadlineBound) {
  constexpr double kService = 0.004;  // seconds per dispatched batch
  BatcherOptions options;
  options.max_batch = 4;
  options.preferred_batch = 4;
  options.max_delay_seconds = 0.010;
  options.max_inflight = 4096;
  std::vector<TenantConfig> tenants = interactive_and_bulk();
  tenants[1].queue_capacity = 4096;
  BatcherCore core(options, tenants);

  // The slow tenant floods 400 requests up front — a hundred batches of
  // backlog, far more than the interactive traffic spans.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(core.admit(1, tiny_input(), 0.0).is_ok());
  }
  const std::vector<double> interactive_arrivals = {0.003, 0.0171, 0.029};

  std::vector<double> interactive_latencies;
  std::size_t next_arrival = 0;
  double now = 0.0;
  double free_at = 0.0;
  while (interactive_latencies.size() < interactive_arrivals.size()) {
    while (next_arrival < interactive_arrivals.size() &&
           interactive_arrivals[next_arrival] <= now) {
      ASSERT_TRUE(
          core.admit(0, tiny_input(), interactive_arrivals[next_arrival])
              .is_ok());
      ++next_arrival;
    }
    if (now >= free_at && core.batch_due(now)) {
      std::optional<Batch> batch = core.form_batch(now);
      ASSERT_TRUE(batch.has_value());
      const double completion = now + kService;
      for (const Request& request : batch->requests) {
        if (request.tenant == 0) {
          interactive_latencies.push_back(completion -
                                          request.arrival_seconds);
        }
      }
      core.complete(*batch);
      free_at = completion;
    }
    // Advance to the next event; the bulk backlog keeps a batch due at all
    // times, so the backend-free instant is always an event.
    double next = free_at > now ? free_at : now + kService;
    if (next_arrival < interactive_arrivals.size()) {
      next = std::min(next, interactive_arrivals[next_arrival]);
    }
    ASSERT_GT(next, now) << "virtual clock stalled";
    now = next;
  }

  // Hard bound: at worst a request waits out its deadline behind one
  // already-running batch, then rides the next one — max_delay plus two
  // service times. The flood never pushes it further.
  for (const double latency : interactive_latencies) {
    EXPECT_LE(latency, options.max_delay_seconds + 2 * kService + 1e-9);
  }
}

// ---- plan cache -------------------------------------------------------------

TEST(PlanCacheTest, FingerprintIgnoresNamesButNotGeometry) {
  condor::testing::TinyNetConfig config;
  const nn::Network a = condor::testing::make_tiny_net(config);
  nn::Network b = condor::testing::make_tiny_net(config);
  // Same structure under different labels hashes identically.
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  config.conv_outputs += 1;
  const nn::Network c = condor::testing::make_tiny_net(config);
  EXPECT_NE(fingerprint(a), fingerprint(c));
}

TEST(PlanCacheTest, WeightFingerprintTracksParameterBytes) {
  const nn::Network net =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  nn::WeightStore w1 = nn::initialize_weights(net, 5).value();
  const nn::WeightStore w2 = nn::initialize_weights(net, 6).value();
  EXPECT_NE(fingerprint(w1), fingerprint(w2));
  EXPECT_EQ(fingerprint(w1), fingerprint(w1));
}

TEST(PlanCacheTest, RepeatSessionHitsAndSharesThePool) {
  const nn::Network net =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  const hw::HwNetwork hw_net = hw::with_default_annotations(net);
  const nn::WeightStore weights = nn::initialize_weights(net, 5).value();
  PlanCache cache(4);
  auto first =
      cache.get_or_create(hw_net, weights, nn::DataType::kFloat32, 2);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  auto second =
      cache.get_or_create(hw_net, weights, nn::DataType::kFloat32, 2);
  ASSERT_TRUE(second.is_ok());
  // Warm hit: the very same entry (and thus the same compiled pool).
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(first.value()->pool.get(), second.value()->pool.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Any key component change is a compile, not a stale hit.
  auto fixed =
      cache.get_or_create(hw_net, weights, nn::DataType::kFixed8, 2);
  ASSERT_TRUE(fixed.is_ok());
  EXPECT_NE(fixed.value().get(), first.value().get());
  auto wider =
      cache.get_or_create(hw_net, weights, nn::DataType::kFloat32, 3);
  ASSERT_TRUE(wider.is_ok());
  EXPECT_NE(wider.value().get(), first.value().get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);

  // The cached pool actually serves.
  const auto inputs = condor::testing::random_inputs(net, 3, 7);
  auto outputs = first.value()->pool->run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok());
  EXPECT_EQ(outputs.value().size(), 3u);
}

TEST(PlanCacheTest, PlanParameterDigestSeparatesClusterings) {
  // Two tenants serving the same network with different plan parameters
  // (fused clustering, parallelism, board) must get distinct compiled
  // pools: the key folds in plan_fingerprint, not just the topology hash.
  condor::testing::TinyNetConfig config;
  config.with_pool = true;
  const nn::Network net = condor::testing::make_tiny_net(config);
  const nn::WeightStore weights = nn::initialize_weights(net, 5).value();
  const hw::HwNetwork base = hw::with_default_annotations(net);
  hw::HwNetwork fused = base;
  fused.hw.layers[1].pe_group = 0;  // conv
  fused.hw.layers[2].pe_group = 0;  // pool
  ASSERT_TRUE(fused.validate().is_ok());
  hw::HwNetwork wider = base;
  wider.hw.layers[1].parallel_out = 2;
  EXPECT_NE(plan_fingerprint(base), plan_fingerprint(fused));
  EXPECT_NE(plan_fingerprint(base), plan_fingerprint(wider));

  PlanCache cache(4);
  auto plain = cache.get_or_create(base, weights, nn::DataType::kFloat32, 1);
  auto clustered =
      cache.get_or_create(fused, weights, nn::DataType::kFloat32, 1);
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  ASSERT_TRUE(clustered.is_ok()) << clustered.status().to_string();
  EXPECT_NE(plain.value().get(), clustered.value().get());
  EXPECT_EQ(cache.stats().misses, 2u);

  // Same annotations again: a warm hit on the fused entry.
  auto again = cache.get_or_create(fused, weights, nn::DataType::kFloat32, 1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().get(), clustered.value().get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Both clusterings serve, byte-identically (fusion never changes bytes).
  const auto inputs = condor::testing::random_inputs(net, 2, 7);
  auto plain_out = plain.value()->pool->run_batch(inputs);
  auto fused_out = clustered.value()->pool->run_batch(inputs);
  ASSERT_TRUE(plain_out.is_ok());
  ASSERT_TRUE(fused_out.is_ok());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(plain_out.value()[i], fused_out.value()[i]), 0.0F);
  }
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  const nn::Network net =
      condor::testing::make_tiny_net(condor::testing::TinyNetConfig{});
  const hw::HwNetwork hw_net = hw::with_default_annotations(net);
  const nn::WeightStore weights = nn::initialize_weights(net, 5).value();
  PlanCache cache(2);
  ASSERT_TRUE(
      cache.get_or_create(hw_net, weights, nn::DataType::kFloat32, 1).is_ok());
  ASSERT_TRUE(
      cache.get_or_create(hw_net, weights, nn::DataType::kFixed16, 1).is_ok());
  // Touch the first entry so the second is the LRU victim.
  ASSERT_TRUE(
      cache.get_or_create(hw_net, weights, nn::DataType::kFloat32, 1).is_ok());
  ASSERT_TRUE(
      cache.get_or_create(hw_net, weights, nn::DataType::kFixed8, 1).is_ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The touched entry survived; the evicted one recompiles.
  EXPECT_EQ(cache.stats().hits, 1u);
  auto again =
      cache.get_or_create(hw_net, weights, nn::DataType::kFixed16, 1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(cache.stats().misses, 4u);
}

// ---- server end-to-end ------------------------------------------------------

struct ServeFixture {
  hw::AcceleratorPlan plan;
  nn::WeightStore weights;
  nn::Network model;
};

ServeFixture make_serve_fixture() {
  ServeFixture fixture;
  fixture.model = nn::make_tc1();
  hw::HwNetwork hw_net = hw::with_default_annotations(fixture.model);
  fixture.plan = hw::plan_accelerator(hw_net).value();
  fixture.weights = nn::initialize_weights(fixture.model, 11).value();
  return fixture;
}

TEST(ServerTest, DemuxedOutputsAreBitExactVsDirectRun) {
  ServeFixture fixture = make_serve_fixture();
  auto pool = dataflow::ExecutorPool::create(fixture.plan, fixture.weights, 2);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  PoolBackend backend(
      std::make_shared<dataflow::ExecutorPool>(std::move(pool).value()));

  ServerOptions options;
  options.batcher.max_batch = 4;
  options.batcher.preferred_batch = 2;
  options.batcher.max_delay_seconds = 0.002;
  auto server = Server::create(options, interactive_and_bulk(), {&backend});
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  const auto inputs = condor::testing::random_inputs(fixture.model, 6, 23);
  std::vector<std::future<Result<Tensor>>> futures;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    futures.push_back(server.value().submit(i % 2, inputs[i]));
  }

  // Oracle: an independent single executor over the same plan + weights.
  auto single = dataflow::AcceleratorExecutor::create(fixture.plan,
                                                      fixture.weights);
  ASSERT_TRUE(single.is_ok());
  auto expected = single.value().run_batch(inputs);
  ASSERT_TRUE(expected.is_ok());

  for (std::size_t i = 0; i < futures.size(); ++i) {
    Result<Tensor> output = futures[i].get();
    ASSERT_TRUE(output.is_ok()) << output.status().to_string();
    ASSERT_EQ(output.value().size(), expected.value()[i].size());
    EXPECT_EQ(std::memcmp(output.value().data().data(),
                          expected.value()[i].data().data(),
                          output.value().size() * sizeof(float)),
              0)
        << "request " << i << " demuxed to the wrong output";
  }
  server.value().shutdown();
  const ServerStats stats = server.value().stats();
  EXPECT_EQ(stats.images_served, inputs.size());
  EXPECT_EQ(stats.backend_failures, 0u);
  EXPECT_EQ(stats.tenants[0].completed + stats.tenants[1].completed,
            inputs.size());
}

TEST(ServerTest, AdmissionRejectsResolveImmediately) {
  ServeFixture fixture = make_serve_fixture();
  auto pool = dataflow::ExecutorPool::create(fixture.plan, fixture.weights, 1);
  ASSERT_TRUE(pool.is_ok());
  PoolBackend backend(
      std::make_shared<dataflow::ExecutorPool>(std::move(pool).value()));
  auto server =
      Server::create(ServerOptions{}, interactive_and_bulk(), {&backend});
  ASSERT_TRUE(server.is_ok());
  // Unknown tenant: the future is ready before any backend runs.
  auto future = server.value().submit(9, tiny_input());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<Tensor> output = future.get();
  ASSERT_FALSE(output.is_ok());
  EXPECT_EQ(output.status().code(), StatusCode::kNotFound);
}

TEST(ServerTest, ConfigurationIsValidated) {
  ServeFixture fixture = make_serve_fixture();
  auto pool = dataflow::ExecutorPool::create(fixture.plan, fixture.weights, 1);
  ASSERT_TRUE(pool.is_ok());
  PoolBackend backend(
      std::make_shared<dataflow::ExecutorPool>(std::move(pool).value()));
  EXPECT_FALSE(Server::create(ServerOptions{}, {}, {&backend}).is_ok());
  EXPECT_FALSE(Server::create(ServerOptions{}, one_tenant(), {}).is_ok());
  EXPECT_FALSE(
      Server::create(ServerOptions{}, one_tenant(), {nullptr}).is_ok());
}

// ---- load generator ---------------------------------------------------------

TEST(LoadGen, OpenLoopCompletesBitExactAndBeatsSerialDispatch) {
  ServeFixture fixture = make_serve_fixture();
  auto pool = dataflow::ExecutorPool::create(fixture.plan, fixture.weights, 2);
  ASSERT_TRUE(pool.is_ok());
  auto accel = make_service_model(pool.value().plan());
  ASSERT_TRUE(accel.is_ok()) << accel.status().to_string();

  LoadGenOptions options;
  options.requests = 96;
  options.batcher.max_batch = 16;
  options.batcher.preferred_batch = 4;
  options.batcher.max_delay_seconds = 0.025;
  auto report = run_open_loop(pool.value(), accel.value(), options);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  EXPECT_EQ(report.value().completed, options.requests);
  EXPECT_EQ(report.value().rejected, 0u);
  EXPECT_TRUE(report.value().bitexact_vs_direct);
  EXPECT_TRUE(report.value().p99_within_bound)
      << "p99 " << report.value().latency.p99_ms << " ms vs bound "
      << report.value().p99_bound_ms << " ms";
  // At 2.5x the serial capacity, batching must outrun per-request dispatch.
  EXPECT_GT(report.value().speedup, 1.2);
  EXPECT_GT(report.value().mean_batch, 1.0);
}

TEST(LoadGen, ServiceModelPricesThePlansDatapath) {
  // TC1's tanh PEs close at the fixed8 timing preset (transcendental
  // factor 0.90) far above the float32 one (0.46), so a fixed8 plan priced
  // with float32 presets would report the float32 clock.
  hw::HwNetwork hw_net = hw::with_default_annotations(nn::make_tc1());
  const hw::AcceleratorPlan float_plan =
      hw::plan_accelerator(hw_net).value();
  hw_net.hw.data_type = nn::DataType::kFixed8;
  const hw::AcceleratorPlan fixed_plan = hw::plan_accelerator(hw_net).value();
  auto float_model = make_service_model(float_plan);
  auto fixed_model = make_service_model(fixed_plan);
  ASSERT_TRUE(float_model.is_ok()) << float_model.status().to_string();
  ASSERT_TRUE(fixed_model.is_ok()) << fixed_model.status().to_string();
  EXPECT_GT(fixed_model.value().frequency_mhz,
            float_model.value().frequency_mhz);

  const hls::SynthesisOptions fixed8_presets{
      hw::cost_model_for(nn::DataType::kFixed8),
      hw::timing_model_for(nn::DataType::kFixed8)};
  auto fixed_report = hls::synthesize(fixed_plan, fixed8_presets);
  ASSERT_TRUE(fixed_report.is_ok()) << fixed_report.status().to_string();
  EXPECT_EQ(fixed_model.value().frequency_mhz,
            fixed_report.value().achieved_clock_mhz);
}

TEST(LoadGen, LatencySummaryUsesNearestRank) {
  LatencySummary summary = summarize_latencies({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(summary.p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(summary.p99_ms, 4.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 2.5);
  const LatencySummary empty = summarize_latencies({});
  EXPECT_DOUBLE_EQ(empty.p99_ms, 0.0);
}

}  // namespace
}  // namespace condor::serve
