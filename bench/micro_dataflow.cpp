// Micro-benchmarks (google-benchmark) of the engine substrate: FIFO
// transfer calls and the scheduler's two-module hand-off, and functional
// accelerator execution vs the golden CPU reference.
//
// These quantify the *host-side* cost of the simulation infrastructure —
// they are not device-performance claims (those come from the hw models
// and the batch timing in the table/figure benches).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/executor.hpp"
#include "dataflow/executor_pool.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/graph.hpp"
#include "hw/accel_plan.hpp"
#include "nn/kernels.hpp"
#include "nn/kernels_simd.hpp"
#include "nn/models.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"
#include "common/rng.hpp"

namespace {

using namespace condor;

/// One thread writes a ring's worth of elements, then reads them back, one
/// element per FIFO call: the cost of the transfer calls themselves (index
/// arithmetic, release/acquire publishes and the wake handshake's fence).
void BM_FifoSingleThreaded(benchmark::State& state) {
  dataflow::Stream fifo(static_cast<std::size_t>(state.range(0)));
  const std::size_t burst = fifo.capacity();
  const float one = 1.0F;
  float value = 0.0F;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(
          fifo.try_write_burst(std::span<const float>(&one, 1)));
    }
    for (std::size_t i = 0; i < burst; ++i) {
      benchmark::DoNotOptimize(
          fifo.try_read_burst(std::span<float>(&value, 1)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_FifoSingleThreaded)->Arg(16)->Arg(256);

constexpr std::size_t kHandoffCount = 100'000;

/// Sends 0..kHandoffCount-1 in runs of `burst` elements (1 = one element
/// per write), then closes the stream.
class HandoffSource final : public dataflow::Module {
 public:
  HandoffSource(dataflow::Stream& out, std::size_t burst)
      : Module("source"), out_(out), items_(burst) {}
  dataflow::Fire fire(const dataflow::RunContext&) override {
    for (std::size_t sent = 0; sent < kHandoffCount; sent += items_.size()) {
      const std::size_t n = std::min(items_.size(), kHandoffCount - sent);
      std::fill_n(items_.begin(), n, static_cast<float>(sent));
      CONDOR_CO_WRITE_BURST(out_, std::span<const float>(items_).first(n),
                            internal_error("source: stream closed"));
    }
    out_.close();
    co_return Status::ok();
  }

 private:
  dataflow::Stream& out_;
  std::vector<float> items_;
};

/// Receives the source's elements in runs of `burst`, then expects EOS.
class HandoffSink final : public dataflow::Module {
 public:
  HandoffSink(dataflow::Stream& in, std::size_t burst)
      : Module("sink"), in_(in), items_(burst) {}
  dataflow::Fire fire(const dataflow::RunContext&) override {
    for (std::size_t got = 0; got < kHandoffCount; got += items_.size()) {
      const std::size_t n = std::min(items_.size(), kHandoffCount - got);
      CONDOR_CO_READ_EXACT(in_, std::span<float>(items_).first(n),
                           internal_error("sink: lost elements"));
    }
    float extra = 0.0F;
    bool more = false;
    CONDOR_CO_READ_ONE_OR_EOS(in_, extra, more);
    co_return more ? internal_error("sink: extra elements") : Status::ok();
  }

 private:
  dataflow::Stream& in_;
  std::vector<float> items_;
};

/// The hand-off the executor really uses: a two-module graph on two
/// cooperative workers (the caller plus one pool thread), moving
/// kHandoffCount elements through one stream of capacity arg0 in runs of
/// arg1 elements. A firing that finds the stream full or empty suspends,
/// and the peer's publish wakes it through the scheduler's ready ring.
void BM_FifoHandoff(benchmark::State& state, std::size_t burst) {
  dataflow::Graph graph;
  dataflow::Stream& stream =
      graph.make_stream(static_cast<std::size_t>(state.range(0)), "handoff");
  graph.add_module<HandoffSource>(stream, burst);
  graph.add_module<HandoffSink>(stream, burst);
  ThreadPool pool(1);
  dataflow::GraphRunOptions options;
  options.workers = 2;
  for (auto _ : state) {
    graph.reopen_streams();
    if (!graph.run({}, &pool, options).is_ok()) {
      state.SkipWithError("lost elements");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHandoffCount));
}
void BM_FifoProducerConsumer(benchmark::State& state) {
  BM_FifoHandoff(state, 1);
}
/// Burst transfers across the same hand-off: 128 elements move per FIFO
/// call, so the synchronization cost amortizes over the burst length.
void BM_FifoBurstProducerConsumer(benchmark::State& state) {
  BM_FifoHandoff(state, 128);
}
BENCHMARK(BM_FifoProducerConsumer)->Arg(16)->Arg(1024);
BENCHMARK(BM_FifoBurstProducerConsumer)->Arg(16)->Arg(1024);

/// One image through the full KPN accelerator.
void BM_AcceleratorFunctional(benchmark::State& state, const nn::Network& model) {
  auto weights = nn::initialize_weights(model, 1).value();
  auto plan =
      hw::plan_accelerator(hw::with_default_annotations(model)).value();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan, std::move(weights)).value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  std::vector<Tensor> batch;
  for (int i = 0; i < 4; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  for (auto _ : state) {
    auto outputs = executor.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
void BM_AcceleratorFunctional_TC1(benchmark::State& state) {
  BM_AcceleratorFunctional(state, nn::make_tc1());
}
void BM_AcceleratorFunctional_LeNet(benchmark::State& state) {
  BM_AcceleratorFunctional(state, nn::make_lenet());
}
/// The DAG path: two residual blocks plus a concat head, so every image
/// crosses fan-outs and two-operand join PEs.
void BM_AcceleratorResidual(benchmark::State& state) {
  BM_AcceleratorFunctional(state, nn::make_tiny_resnet());
}
BENCHMARK(BM_AcceleratorFunctional_TC1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AcceleratorFunctional_LeNet)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AcceleratorResidual)->Unit(benchmark::kMillisecond);

/// Steady-state serving: repeated batches through ONE executor, so the
/// compiled design, stream topology and worker pool are reused and only
/// data moves per iteration (the paper's deployment scenario — a resident
/// accelerator fed batch after batch).
void BM_AcceleratorRepeatedBatch(benchmark::State& state) {
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  auto plan =
      hw::plan_accelerator(hw::with_default_annotations(model)).value();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan, std::move(weights)).value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::vector<Tensor> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  // Warm-up: the first call compiles the design.
  if (!executor.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    auto outputs = executor.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_AcceleratorRepeatedBatch)->Arg(16)->Unit(benchmark::kMillisecond);

/// Fused-chain serving: LeNet's whole feature stage clustered onto one
/// fused PE, repeated 16-image batches through one resident executor. Only
/// pass 0 crosses the memory subsystem; the later passes run PE-locally.
void BM_AcceleratorFusedChain(benchmark::State& state) {
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  hw::HwNetwork hw_net = hw::with_default_annotations(model);
  for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
    if (!model.layers()[i].is_feature_extraction()) {
      break;
    }
    hw_net.hw.layers[i].pe_group = 0;
  }
  auto plan = hw::plan_accelerator(hw_net).value();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan, std::move(weights)).value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  std::vector<Tensor> batch;
  for (int i = 0; i < 16; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  if (!executor.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    auto outputs = executor.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.counters["fused_local_passes"] = static_cast<double>(
      executor.last_run_stats().fused_local_passes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_AcceleratorFusedChain)->Unit(benchmark::kMillisecond);

/// Weight residency + multi-image pipelining on LeNet at batch 1 / 4 / 16.
/// arg1 selects the serving mode: 0 = resident (one executor reused across
/// iterations — warm runs stream zero weight bytes and overlap images),
/// 1 = drain (a fresh executor per iteration, re-streaming and re-latching
/// every weight slice — the cost the legacy per-image drain paid
/// continuously). The gap between the two rows is the residency win; the
/// sub-linear growth of the resident row across batch sizes is the
/// pipelining win.
void BM_AcceleratorBatchPipelining(benchmark::State& state) {
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  auto plan =
      hw::plan_accelerator(hw::with_default_annotations(model)).value();
  const auto shared_plan =
      std::make_shared<const condor::hw::AcceleratorPlan>(std::move(plan));
  const auto shared_weights =
      std::make_shared<const condor::nn::WeightStore>(std::move(weights));
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  const bool drain = state.range(1) != 0;
  std::vector<Tensor> batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  auto resident = dataflow::AcceleratorExecutor::create(shared_plan,
                                                        shared_weights)
                      .value();
  if (!resident.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    if (drain) {
      auto executor = dataflow::AcceleratorExecutor::create(shared_plan,
                                                            shared_weights)
                          .value();
      auto outputs = executor.run_batch(batch);
      if (!outputs.is_ok()) {
        state.SkipWithError("run failed");
      }
      benchmark::DoNotOptimize(outputs);
    } else {
      auto outputs = resident.run_batch(batch);
      if (!outputs.is_ok()) {
        state.SkipWithError("run failed");
      }
      benchmark::DoNotOptimize(outputs);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
  if (!drain) {
    state.counters["weight_bytes_warm"] = static_cast<double>(
        resident.last_run_stats().weight_bytes_streamed);
    state.counters["images_in_flight_hwm"] = static_cast<double>(
        resident.last_run_stats().images_in_flight_hwm);
  }
}
BENCHMARK(BM_AcceleratorBatchPipelining)
    ->ArgNames({"batch", "drain"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

/// The golden reference, for an apples-to-apples host-cost comparison.
void BM_Reference(benchmark::State& state, const nn::Network& model) {
  auto weights = nn::initialize_weights(model, 1).value();
  auto engine = nn::ReferenceEngine::create(model, std::move(weights)).value();
  Rng rng(2);
  Tensor image(model.input_shape().value());
  for (float& v : image.data()) {
    v = rng.uniform(-1.0F, 1.0F);
  }
  for (auto _ : state) {
    auto out = engine.forward(image);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_Reference_TC1(benchmark::State& state) {
  BM_Reference(state, nn::make_tc1());
}
void BM_Reference_LeNet(benchmark::State& state) {
  BM_Reference(state, nn::make_lenet());
}
BENCHMARK(BM_Reference_TC1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Reference_LeNet)->Unit(benchmark::kMillisecond);

/// The packed OC-contiguous conv microkernel (nn/kernels.hpp) against the
/// scalar oc-outer schedule it replaced, on one conv-shaped workload
/// (32 output maps of 16x16, 16 input channels, 3x3 window). Args:
/// {0, _} = the pre-repack scalar schedule baseline; {1, level} = the
/// packed kernel pinned to SIMD dispatch level `level` (0 scalar, 1 avx2,
/// 2 avx512 — unsupported levels skip). Compare items/s (MACs) between
/// rows; all run on a single thread. The label records the variant.
void BM_ConvMicrokernel(benchmark::State& state) {
  // Runtime-opaque dimensions: the replaced scalar schedule ran with
  // runtime loop bounds (LayerPass fields), so the baseline must not be
  // constant-folded into a fully unrolled SIMD loop the original never saw.
  volatile std::size_t dims[5] = {16, 32, 3, 16, 16};
  const std::size_t kInC = dims[0];
  const std::size_t kOutC = dims[1];
  const std::size_t kK = dims[2];
  const std::size_t kOutH = dims[3];
  const std::size_t kOutW = dims[4];
  const std::size_t kInH = kOutH + kK - 1;
  const std::size_t kInW = kOutW + kK - 1;
  const std::size_t kTaps = kK * kK;
  const std::size_t kPoints = kOutH * kOutW;

  Rng rng(3);
  std::vector<float> frame(kInC * kInH * kInW);
  std::vector<float> weights(kOutC * kInC * kTaps);
  std::vector<float> bias(kOutC);
  for (float& v : frame) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : weights) v = rng.uniform(-1.0F, 1.0F);
  for (float& v : bias) v = rng.uniform(-1.0F, 1.0F);
  std::vector<float> out(kOutC * kPoints);

  const bool packed_variant = state.range(0) != 0;
  const auto requested_level =
      static_cast<nn::kernels::SimdLevel>(state.range(1));
  const nn::kernels::SimdLevel previous_level =
      nn::kernels::active_simd_level();
  if (packed_variant &&
      nn::kernels::set_active_simd_level_for_testing(requested_level) !=
          requested_level) {
    nn::kernels::set_active_simd_level_for_testing(previous_level);
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  const std::vector<float> packed =
      nn::kernels::pack_conv_weights<float>(weights, kOutC, kInC, kK, kK);
  std::vector<float> acc(kPoints * kOutC);
  std::vector<const float*> taps(kTaps);

  for (auto _ : state) {
    if (!packed_variant) {
      // The pre-repack schedule: oc outer, strided weight walk with an
      // index multiply per access, one scalar accumulator per point.
      for (std::size_t oc = 0; oc < kOutC; ++oc) {
        for (std::size_t oy = 0; oy < kOutH; ++oy) {
          for (std::size_t ox = 0; ox < kOutW; ++ox) {
            float value = bias[oc];
            for (std::size_t ic = 0; ic < kInC; ++ic) {
              for (std::size_t ky = 0; ky < kK; ++ky) {
                for (std::size_t kx = 0; kx < kK; ++kx) {
                  value += frame[(ic * kInH + oy + ky) * kInW + ox + kx] *
                           weights[((oc * kInC + ic) * kK + ky) * kK + kx];
                }
              }
            }
            out[(oc * kOutH + oy) * kOutW + ox] = value;
          }
        }
      }
    } else {
      // The packed point-major tile the reference and the PE now run.
      for (std::size_t point = 0; point < kPoints; ++point) {
        for (std::size_t j = 0; j < kOutC; ++j) {
          acc[point * kOutC + j] = bias[j];
        }
      }
      for (std::size_t ic = 0; ic < kInC; ++ic) {
        const float* channel = frame.data() + ic * kInH * kInW;
        const float* packed_ic = packed.data() + ic * kTaps * kOutC;
        for (std::size_t oy = 0; oy < kOutH; ++oy) {
          for (std::size_t ky = 0; ky < kK; ++ky) {
            for (std::size_t kx = 0; kx < kK; ++kx) {
              taps[ky * kK + kx] = channel + (oy + ky) * kInW + kx;
            }
          }
          nn::kernels::conv_accumulate_row(acc.data() + oy * kOutW * kOutC,
                                           kOutC, kOutW, taps.data(), kTaps,
                                           1, packed_ic, kOutC);
        }
      }
      for (std::size_t j = 0; j < kOutC; ++j) {
        for (std::size_t point = 0; point < kPoints; ++point) {
          out[j * kPoints + point] = acc[point * kOutC + j];
        }
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  if (packed_variant) {
    nn::kernels::set_active_simd_level_for_testing(previous_level);
  }
  std::string label = packed_variant ? "packed-" : "scalar";
  if (packed_variant) {
    label += nn::kernels::to_string(requested_level);
  }
  state.SetLabel(label);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kOutC * kInC * kTaps *
                                                    kPoints));
}
BENCHMARK(BM_ConvMicrokernel)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2});

/// Steady-state LeNet serving at uniform intra-layer unfolding degrees
/// (Arg = parallel_out). The degree is a plan parameter: the resource and
/// performance models price it, and the executor computes every pass
/// full-width whatever its value, so host time must not depend on it — the
/// three rows should tie within noise.
void BM_AcceleratorParallelOut(benchmark::State& state) {
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  hw::HwNetwork hw_net = hw::with_default_annotations(model);
  for (std::size_t i = 1; i < hw_net.hw.layers.size(); ++i) {
    hw_net.hw.layers[i].parallel_out = static_cast<std::size_t>(state.range(0));
  }
  auto plan = hw::plan_accelerator(hw_net).value();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan, std::move(weights)).value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  std::vector<Tensor> batch;
  for (int i = 0; i < 8; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  if (!executor.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    auto outputs = executor.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_AcceleratorParallelOut)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Steady-state LeNet serving per numeric datapath (Arg: 0 = float32,
/// 1 = fixed16, 2 = fixed8). The fixed designs run the integer MAC
/// microkernels plus per-blob dynamic requantization and the frame header
/// words — this measures that host-side overhead against
/// the float datapath on the identical topology.
void BM_AcceleratorDataType(benchmark::State& state) {
  const nn::DataType type = state.range(0) == 0   ? nn::DataType::kFloat32
                            : state.range(0) == 1 ? nn::DataType::kFixed16
                                                  : nn::DataType::kFixed8;
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  hw::HwNetwork hw_net = hw::with_default_annotations(model);
  hw_net.hw.data_type = type;
  auto plan = hw::plan_accelerator(hw_net).value();
  auto executor =
      dataflow::AcceleratorExecutor::create(plan, std::move(weights)).value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  std::vector<Tensor> batch;
  for (int i = 0; i < 8; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  if (!executor.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    auto outputs = executor.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetLabel(std::string(nn::to_string(type)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_AcceleratorDataType)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Multi-instance serving: a LeNet batch of 64 sharded dynamically across
/// N replicated accelerator instances (Arg = N) by the ExecutorPool. On a
/// single hardware thread the counts should roughly tie (the replicas time-
/// slice one core); with cores to spare, wall-clock throughput approaches
/// N-fold. The label records the host's hardware threads so checked-in
/// results stay interpretable.
void BM_AcceleratorInstances(benchmark::State& state) {
  const std::size_t instances = static_cast<std::size_t>(state.range(0));
  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 1).value();
  auto plan =
      hw::plan_accelerator(hw::with_default_annotations(model)).value();
  auto pool =
      dataflow::ExecutorPool::create(plan, std::move(weights), instances)
          .value();
  Rng rng(2);
  const Shape input_shape = model.input_shape().value();
  std::vector<Tensor> batch;
  for (int i = 0; i < 64; ++i) {
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    batch.push_back(std::move(image));
  }
  // Warm-up: every instance compiles its design on first use, and with a
  // dynamic queue an instance might see its first chunk mid-measurement.
  if (!pool.run_batch(batch).is_ok()) {
    state.SkipWithError("warm-up failed");
  }
  for (auto _ : state) {
    auto outputs = pool.run_batch(batch);
    if (!outputs.is_ok()) {
      state.SkipWithError("run failed");
    }
    benchmark::DoNotOptimize(outputs);
  }
  state.SetLabel("host_threads=" +
                 std::to_string(std::thread::hardware_concurrency()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_AcceleratorInstances)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    // At ~90 ms per 64-image iteration the default 0.5 s budget averages
    // only a handful of iterations; a longer window keeps host-share drift
    // from dominating the instance-count comparison.
    ->MinTime(4.0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  condor::log::set_level(condor::log::Level::kError);
  benchmark::Initialize(&argc, argv);
  // Recorded next to host_threads so checked-in BENCH json stays
  // interpretable: which microkernel dispatch level the run used and what
  // the host CPU offered (see nn/kernels_simd.hpp; CONDOR_SIMD overrides).
  benchmark::AddCustomContext(
      "simd_level", std::string(condor::nn::kernels::to_string(
                        condor::nn::kernels::active_simd_level())));
  benchmark::AddCustomContext("cpu_features",
                              condor::nn::kernels::cpu_feature_string());
  benchmark::AddCustomContext(
      "host_threads", std::to_string(std::thread::hardware_concurrency()));
  // Condor's own build; library_build_type describes google-benchmark.
  benchmark::AddCustomContext("condor_build_type", CONDOR_BUILD_TYPE);
  benchmark::AddCustomContext("condor_cxx_flags", CONDOR_CXX_FLAGS);
  // The cooperative scheduler is the only scheduler; recorded so older
  // BENCH json rows (which carried a scheduler switch) stay comparable.
  benchmark::AddCustomContext("scheduler", "coop");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
