// Unit tests for the dataflow primitives: the SPSC blocking FIFO (scalar
// and burst paths, close/reopen lifecycle, multi-threaded stress) and the
// graph runner.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/graph.hpp"

namespace condor::dataflow {
namespace {

TEST(Fifo, FifoOrderPreserved) {
  Stream fifo(8);
  for (int i = 0; i < 5; ++i) {
    fifo.write(static_cast<float>(i));
  }
  fifo.close();
  float value = 0.0F;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fifo.read(value));
    EXPECT_EQ(value, static_cast<float>(i));
  }
  EXPECT_FALSE(fifo.read(value));  // closed and drained
}

TEST(Fifo, BlockingProducerConsumer) {
  Stream fifo(2);  // much smaller than the transfer
  constexpr int kCount = 10000;
  std::thread producer([&fifo] {
    for (int i = 0; i < kCount; ++i) {
      fifo.write(static_cast<float>(i));
    }
    fifo.close();
  });
  double sum = 0.0;
  float value = 0.0F;
  int received = 0;
  while (fifo.read(value)) {
    sum += value;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(kCount) * (kCount - 1) / 2.0);
}

TEST(Fifo, StatsTrackOccupancyAndBlocks) {
  Stream fifo(4);
  for (int i = 0; i < 4; ++i) {
    fifo.write(1.0F);
  }
  FifoStats stats = fifo.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.max_occupancy, 4u);
  EXPECT_EQ(stats.total_writes, 4u);
  EXPECT_EQ(stats.write_blocks, 0u);
  // A write into a full FIFO registers a block once a reader frees space.
  std::thread writer([&fifo] { fifo.write(2.0F); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  float value = 0.0F;
  ASSERT_TRUE(fifo.read(value));
  writer.join();
  EXPECT_GE(fifo.stats().write_blocks, 1u);
}

TEST(Fifo, ZeroCapacityClampedToOne) {
  Stream fifo(0);
  EXPECT_EQ(fifo.capacity(), 1u);
  fifo.write(3.0F);
  float value = 0.0F;
  ASSERT_TRUE(fifo.read(value));
  EXPECT_EQ(value, 3.0F);
}

TEST(Fifo, CloseWakesBlockedReaders) {
  Stream fifo(4);
  std::thread reader([&fifo] {
    float value = 0.0F;
    EXPECT_FALSE(fifo.read(value));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fifo.close();
  reader.join();
}

TEST(Fifo, CloseWakesBlockedWriters) {
  Stream fifo(1);
  ASSERT_TRUE(fifo.write(1.0F));  // fill the FIFO
  std::thread writer([&fifo] {
    // Blocked on a full FIFO; close() must wake it and fail the write
    // instead of leaving the thread parked forever.
    EXPECT_FALSE(fifo.write(2.0F));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fifo.close();
  writer.join();
  // The element written before close is still drainable.
  float value = 0.0F;
  ASSERT_TRUE(fifo.read(value));
  EXPECT_EQ(value, 1.0F);
  EXPECT_FALSE(fifo.read(value));
}

TEST(Fifo, WriteAfterCloseIsAnError) {
  Stream fifo(4);
  ASSERT_TRUE(fifo.write(1.0F));
  fifo.close();
  EXPECT_FALSE(fifo.write(2.0F));
  const float burst[2] = {3.0F, 4.0F};
  EXPECT_FALSE(fifo.write_burst(burst));
  float value = 0.0F;
  ASSERT_TRUE(fifo.read(value));  // pre-close element still drains
  EXPECT_EQ(value, 1.0F);
}

TEST(Fifo, CloseWhileReaderBlockedMidBurst) {
  Stream fifo(4);
  std::vector<float> out(10, -1.0F);
  std::size_t got = 0;
  std::thread reader(
      [&] { got = fifo.read_burst(std::span<float>(out)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const float items[3] = {0.0F, 1.0F, 2.0F};
  ASSERT_TRUE(fifo.write_burst(items));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fifo.close();
  reader.join();
  // The burst comes back short with everything written before EOS.
  EXPECT_EQ(got, 3u);
  for (std::size_t i = 0; i < got; ++i) {
    EXPECT_EQ(out[i], static_cast<float>(i));
  }
}

TEST(Fifo, BurstLargerThanCapacityChunks) {
  // A capacity-1 stream still moves arbitrarily large bursts: the transfer
  // degenerates to element-wise chunks but never deadlocks or truncates.
  Stream fifo(1);
  constexpr std::size_t kCount = 1000;
  std::vector<float> sent(kCount);
  std::iota(sent.begin(), sent.end(), 0.0F);
  std::thread producer([&] {
    EXPECT_TRUE(fifo.write_burst(sent));
    fifo.close();
  });
  std::vector<float> received(kCount, -1.0F);
  EXPECT_EQ(fifo.read_burst(std::span<float>(received)), kCount);
  producer.join();
  EXPECT_EQ(received, sent);
}

TEST(Fifo, StressBurstScalarInterleave) {
  // Producer and consumer mix scalar and burst transfers of co-prime sizes
  // against a small ring so every wrap offset and partial chunk is hit.
  // Element order must survive exactly.
  Stream fifo(7);
  constexpr std::size_t kCount = 200000;
  std::thread producer([&fifo] {
    std::vector<float> burst;
    std::size_t next = 0;
    std::size_t step = 1;
    while (next < kCount) {
      const std::size_t n = std::min<std::size_t>(step, kCount - next);
      if (step % 4 == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(fifo.write(static_cast<float>(next + i)));
        }
      } else {
        burst.resize(n);
        std::iota(burst.begin(), burst.end(), static_cast<float>(next));
        ASSERT_TRUE(fifo.write_burst(burst));
      }
      next += n;
      step = step % 13 + 1;  // 1..13, co-prime with the capacity
    }
    fifo.close();
  });
  std::vector<float> chunk;
  std::size_t expected = 0;
  std::size_t step = 3;
  while (expected < kCount) {
    const std::size_t n = std::min<std::size_t>(step, kCount - expected);
    if (step % 5 == 0) {
      float value = 0.0F;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(fifo.read(value));
        ASSERT_EQ(value, static_cast<float>(expected + i));
      }
    } else {
      chunk.assign(n, -1.0F);
      ASSERT_EQ(fifo.read_burst(std::span<float>(chunk)), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(chunk[i], static_cast<float>(expected + i));
      }
    }
    expected += n;
    step = step % 11 + 1;
  }
  float value = 0.0F;
  EXPECT_FALSE(fifo.read(value));  // closed and drained
  producer.join();
  EXPECT_EQ(fifo.stats().total_writes, kCount);
}

TEST(Fifo, ReopenRearmsStreamAndResetsStats) {
  Stream fifo(4, "s");
  for (int run = 0; run < 3; ++run) {
    const float items[3] = {1.0F, 2.0F, 3.0F};
    ASSERT_TRUE(fifo.write_burst(items));
    fifo.close();
    float drained[3] = {};
    ASSERT_EQ(fifo.read_burst(std::span<float>(drained)), 3u);
    float value = 0.0F;
    EXPECT_FALSE(fifo.read(value));
    EXPECT_FALSE(fifo.write(9.0F));  // still closed
    const FifoStats stats = fifo.stats();
    EXPECT_EQ(stats.total_writes, 3u);  // per-run, not cumulative
    EXPECT_EQ(stats.max_occupancy, 3u);
    fifo.reopen();
    EXPECT_FALSE(fifo.closed());
    EXPECT_EQ(fifo.stats().total_writes, 0u);
  }
}

// ---- Graph runner ------------------------------------------------------------

class ProducerModule final : public Module {
 public:
  ProducerModule(Stream& out, int count) : Module("producer"), out_(out), count_(count) {}
  Fire fire(const RunContext&) override {
    for (int i = 0; i < count_; ++i) {
      CONDOR_CO_WRITE_ONE(out_, static_cast<float>(i),
                          internal_error("producer: stream closed early"));
    }
    out_.close();
    co_return Status::ok();
  }

 private:
  Stream& out_;
  int count_;
};

class SummerModule final : public Module {
 public:
  SummerModule(Stream& in, double& sum) : Module("summer"), in_(in), sum_(sum) {}
  Fire fire(const RunContext&) override {
    sum_ = 0.0;
    for (;;) {
      float value = 0.0F;
      bool got = false;
      CONDOR_CO_READ_ONE_OR_EOS(in_, value, got);
      if (!got) {
        break;
      }
      sum_ += value;
    }
    co_return Status::ok();
  }

 private:
  Stream& in_;
  double& sum_;
};

class FailingModule final : public Module {
 public:
  explicit FailingModule(Stream& out) : Module("failing"), out_(out) {}
  Fire fire(const RunContext&) override {
    out_.close();  // release downstream before erroring
    co_return internal_error("deliberate failure");
  }

 private:
  Stream& out_;
};

TEST(Graph, RunsModulesToCompletion) {
  Graph graph;
  Stream& stream = graph.make_stream(4, "s");
  double sum = 0.0;
  graph.add_module<ProducerModule>(stream, 1000);
  graph.add_module<SummerModule>(stream, sum);
  ASSERT_TRUE(graph.run().is_ok());
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
  EXPECT_EQ(graph.module_count(), 2u);
  EXPECT_EQ(graph.stream_count(), 1u);
  EXPECT_EQ(graph.stream_stats()[0].total_writes, 1000u);
}

TEST(Graph, PropagatesModuleFailure) {
  Graph graph;
  Stream& stream = graph.make_stream(4, "s");
  double sum = 0.0;
  graph.add_module<FailingModule>(stream);
  graph.add_module<SummerModule>(stream, sum);
  const Status status = graph.run();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(Graph, RunsOnPersistentPoolAcrossReopens) {
  // The executor's scheduling mode: one pool reused across batches, with
  // reopen_streams() re-arming the FIFOs between runs.
  Graph graph;
  Stream& stream = graph.make_stream(4, "s");
  double sum = 0.0;
  graph.add_module<ProducerModule>(stream, 1000);
  graph.add_module<SummerModule>(stream, sum);
  ThreadPool pool(1);
  for (int run = 0; run < 3; ++run) {
    if (run > 0) {
      graph.reopen_streams();
    }
    ASSERT_TRUE(graph.run({}, &pool, GraphRunOptions{}).is_ok())
        << "run " << run;
    EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
    EXPECT_EQ(graph.stream_stats()[0].total_writes, 1000u);
  }
  // The cooperative scheduler never grows the pool: a 1-worker pool runs
  // any module count (here the calling thread plus at most one worker).
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_LE(graph.last_run_workers(), graph.module_count());
}

TEST(Graph, WorkerCountDoesNotChangeResults) {
  // The cooperative scheduler is the only scheduler; any requested worker
  // count (clamped to the module count) produces identical results.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Graph graph;
    Stream& stream = graph.make_stream(4, "s");
    double sum = 0.0;
    graph.add_module<ProducerModule>(stream, 1000);
    graph.add_module<SummerModule>(stream, sum);
    ThreadPool pool(1);
    GraphRunOptions options;
    options.workers = workers;
    ASSERT_TRUE(graph.run({}, &pool, options).is_ok()) << workers;
    EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0) << workers;
    EXPECT_LE(graph.last_run_workers(), graph.module_count()) << workers;
  }
}

}  // namespace
}  // namespace condor::dataflow
