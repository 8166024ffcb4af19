// Tests for the multi-instance ExecutorPool and its dynamic chunk
// dispatcher: bit-exactness vs a single instance at every data type,
// sharding edge cases, and error propagation mid-batch.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "dataflow/executor.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"
#include "test_util.hpp"

namespace condor::dataflow {
namespace {

// ---- dispatch_chunks --------------------------------------------------------

TEST(DispatchChunks, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kBatch = 37;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const Status status = dispatch_chunks(
      kBatch, /*workers=*/3, /*chunk_size=*/4,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        ranges.emplace_back(begin, end);
        return Status::ok();
      });
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  std::set<std::size_t> covered;
  for (const auto& [begin, end] : ranges) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end, kBatch);
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(covered.insert(i).second) << "index " << i << " twice";
    }
  }
  EXPECT_EQ(covered.size(), kBatch);
}

TEST(DispatchChunks, EmptyBatchRunsNothing) {
  std::atomic<int> calls{0};
  const Status status =
      dispatch_chunks(0, 4, 8, [&](std::size_t, std::size_t, std::size_t) {
        ++calls;
        return Status::ok();
      });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(DispatchChunks, RejectsZeroWorkersOrChunk) {
  const auto noop = [](std::size_t, std::size_t, std::size_t) {
    return Status::ok();
  };
  EXPECT_FALSE(dispatch_chunks(8, 0, 4, noop).is_ok());
  EXPECT_FALSE(dispatch_chunks(8, 2, 0, noop).is_ok());
}

/// Counts `latch` down when the thread that owns this object exits.
struct CountDownAtThreadExit {
  std::latch* latch = nullptr;
  ~CountDownAtThreadExit() {
    if (latch != nullptr) {
      latch->count_down();
    }
  }
};

TEST(DispatchChunks, FirstErrorPoisonsTheQueue) {
  // Deterministic at any interleaving: the driver thread fails its first
  // chunk, and every chunk the calling thread runs is held on a latch until
  // that driver thread has exited. The driver poisons the queue before it
  // exits, so the calling thread finishes the chunk it holds and takes no
  // other.
  constexpr std::size_t kBatch = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::latch driver_exited(1);
  std::atomic<std::size_t> chunks_run{0};
  const Status status = dispatch_chunks(
      kBatch, /*workers=*/2, /*chunk_size=*/1,
      [&](std::size_t, std::size_t, std::size_t) {
        ++chunks_run;
        if (std::this_thread::get_id() == caller) {
          driver_exited.wait();
          return Status::ok();
        }
        thread_local CountDownAtThreadExit at_exit;
        at_exit.latch = &driver_exited;
        return internal_error("driver chunk exploded");
      });
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "driver chunk exploded");
  // The queue was poisoned: nowhere near the full batch was handed out
  // (in-flight chunks may still have drained).
  EXPECT_LT(chunks_run.load(), kBatch);
}

// ---- ExecutorPool -----------------------------------------------------------

struct PoolFixture {
  hw::AcceleratorPlan plan;
  nn::WeightStore weights;
};

PoolFixture make_fixture(const nn::Network& model, nn::DataType data_type,
                         std::uint64_t seed) {
  PoolFixture fixture;
  hw::HwNetwork hw_net = hw::with_default_annotations(model);
  hw_net.hw.data_type = data_type;
  fixture.plan = hw::plan_accelerator(hw_net).value();
  fixture.weights = nn::initialize_weights(model, seed).value();
  return fixture;
}

/// The central property: a pool of N instances returns bit-identical
/// outputs, in input order, to a single instance running the same batch.
void expect_bit_exact_vs_single(const nn::Network& model,
                                nn::DataType data_type, std::size_t instances,
                                std::size_t batch) {
  SCOPED_TRACE(::testing::Message()
               << nn::to_string(data_type) << " instances=" << instances
               << " batch=" << batch);
  PoolFixture fixture = make_fixture(model, data_type, 11);

  auto single =
      AcceleratorExecutor::create(fixture.plan, fixture.weights);
  ASSERT_TRUE(single.is_ok()) << single.status().to_string();
  auto pool = ExecutorPool::create(fixture.plan, fixture.weights, instances);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  EXPECT_EQ(pool.value().instances(), instances);

  const auto inputs = condor::testing::random_inputs(model, batch, 23);
  auto expected = single.value().run_batch(inputs);
  ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
  auto actual = pool.value().run_batch(inputs);
  ASSERT_TRUE(actual.is_ok()) << actual.status().to_string();

  ASSERT_EQ(actual.value().size(), batch);
  for (std::size_t i = 0; i < batch; ++i) {
    ASSERT_EQ(actual.value()[i].shape(), expected.value()[i].shape());
    for (std::size_t e = 0; e < actual.value()[i].size(); ++e) {
      ASSERT_EQ(actual.value()[i][e], expected.value()[i][e])
          << "image " << i << " element " << e;
    }
  }
  // The dynamic sharding census accounts for every image exactly once.
  const PoolRunStats& stats = pool.value().last_pool_stats();
  EXPECT_EQ(stats.batch, batch);
  std::size_t total = 0;
  for (const std::size_t images : stats.images_per_instance) {
    total += images;
  }
  EXPECT_EQ(total, batch);
}

TEST(ExecutorPool, Tc1BitExactAcrossInstanceCountsAndTypes) {
  const nn::Network model = nn::make_tc1();
  for (const nn::DataType type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16, nn::DataType::kFixed8}) {
    for (const std::size_t instances : {2UL, 3UL, 5UL}) {
      // 7 images: non-divisible by 2 and 3, larger than and smaller than
      // the instance counts around it.
      expect_bit_exact_vs_single(model, type, instances, 7);
    }
  }
}

TEST(ExecutorPool, LeNetBitExactAcrossTypes) {
  const nn::Network model = nn::make_lenet();
  for (const nn::DataType type :
       {nn::DataType::kFloat32, nn::DataType::kFixed16, nn::DataType::kFixed8}) {
    expect_bit_exact_vs_single(model, type, 2, 6);
  }
}

TEST(ExecutorPool, BatchSmallerThanInstances) {
  expect_bit_exact_vs_single(nn::make_tc1(), nn::DataType::kFloat32,
                             /*instances=*/4, /*batch=*/2);
}

TEST(ExecutorPool, BatchOfOne) {
  expect_bit_exact_vs_single(nn::make_tc1(), nn::DataType::kFloat32,
                             /*instances=*/3, /*batch=*/1);
}

TEST(ExecutorPool, EmptyBatchIsOk) {
  PoolFixture fixture = make_fixture(nn::make_tc1(), nn::DataType::kFloat32, 3);
  auto pool = ExecutorPool::create(fixture.plan, fixture.weights, 2);
  ASSERT_TRUE(pool.is_ok());
  auto outputs = pool.value().run_batch(std::span<const Tensor>{});
  ASSERT_TRUE(outputs.is_ok());
  EXPECT_TRUE(outputs.value().empty());
  EXPECT_EQ(pool.value().last_pool_stats().batch, 0u);
}

TEST(ExecutorPool, ZeroInstancesRejected) {
  PoolFixture fixture = make_fixture(nn::make_tc1(), nn::DataType::kFloat32, 3);
  EXPECT_FALSE(ExecutorPool::create(fixture.plan, fixture.weights, 0).is_ok());
}

TEST(ExecutorPool, MidBatchErrorSurfacesOnceAndPoolRecovers) {
  const nn::Network model = nn::make_tc1();
  PoolFixture fixture = make_fixture(model, nn::DataType::kFloat32, 3);
  auto pool = ExecutorPool::create(fixture.plan, fixture.weights, 2);
  ASSERT_TRUE(pool.is_ok());

  // One poisoned image mid-batch: the chunk containing it fails shape
  // validation inside its instance; the other chunks drain cleanly and
  // exactly the first recorded error comes back.
  auto inputs = condor::testing::random_inputs(model, 8, 29);
  inputs[5] = Tensor(Shape{1, 2, 2});  // wrong input shape
  auto failed = pool.value().run_batch(inputs);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(failed.status().message().find("does not match network input"),
            std::string::npos)
      << failed.status().to_string();

  // The pool stays usable: the failed instance recompiles lazily and the
  // next batch is bit-exact again.
  const auto good = condor::testing::random_inputs(model, 8, 31);
  auto single = AcceleratorExecutor::create(fixture.plan, fixture.weights);
  ASSERT_TRUE(single.is_ok());
  auto expected = single.value().run_batch(good);
  ASSERT_TRUE(expected.is_ok());
  auto recovered = pool.value().run_batch(good);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (std::size_t e = 0; e < recovered.value()[i].size(); ++e) {
      ASSERT_EQ(recovered.value()[i][e], expected.value()[i][e]);
    }
  }
}

TEST(ExecutorPool, SharedPlanVariantMatchesValueVariant) {
  const nn::Network model = nn::make_tc1();
  PoolFixture fixture = make_fixture(model, nn::DataType::kFloat32, 3);
  auto plan = std::make_shared<const hw::AcceleratorPlan>(fixture.plan);
  auto weights = std::make_shared<const nn::WeightStore>(fixture.weights);
  auto pool = ExecutorPool::create(plan, weights, 2);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  // All instances reference the one shared plan.
  EXPECT_EQ(&pool.value().plan(), plan.get());
  EXPECT_EQ(&pool.value().instance(0).plan(), plan.get());
  EXPECT_EQ(&pool.value().instance(1).plan(), plan.get());

  const auto inputs = condor::testing::random_inputs(model, 3, 17);
  auto outputs = pool.value().run_batch(inputs);
  ASSERT_TRUE(outputs.is_ok());
  EXPECT_EQ(outputs.value().size(), 3u);
}

}  // namespace
}  // namespace condor::dataflow
