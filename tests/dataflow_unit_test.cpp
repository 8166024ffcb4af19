// Unit tests for the dataflow primitives: the SPSC FIFO's burst transfers
// (partial transfers at full/empty, close/reopen lifecycle, statistics) and
// the cooperative graph runner, whose CONDOR_CO_* modules are the FIFO's
// only waiting clients — order under co-prime scalar/burst sizes, suspension
// on empty and full streams, and failure teardown at one and two workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/graph.hpp"

namespace condor::dataflow {
namespace {

TryTransfer write_items(Stream& fifo, std::vector<float> items) {
  return fifo.try_write_burst(items);
}

TEST(Fifo, FifoOrderPreserved) {
  Stream fifo(8);
  for (int i = 0; i < 5; ++i) {
    const float value = static_cast<float>(i);
    ASSERT_EQ(fifo.try_write_burst(std::span<const float>(&value, 1)).count,
              1u);
  }
  fifo.close();
  for (int i = 0; i < 5; ++i) {
    float value = -1.0F;
    const TryTransfer r = fifo.try_read_burst(std::span<float>(&value, 1));
    ASSERT_EQ(r.count, 1u);
    EXPECT_FALSE(r.closed);
    EXPECT_EQ(value, static_cast<float>(i));
  }
  float value = 0.0F;
  const TryTransfer eos = fifo.try_read_burst(std::span<float>(&value, 1));
  EXPECT_EQ(eos.count, 0u);
  EXPECT_TRUE(eos.closed);  // closed and drained
}

TEST(Fifo, PartialTransferAtFullAndEmpty) {
  Stream fifo(4);
  EXPECT_TRUE(fifo.write_ready());
  EXPECT_FALSE(fifo.read_ready());
  // A burst larger than the free space stops short at full, not closed.
  const TryTransfer wrote =
      write_items(fifo, {0.0F, 1.0F, 2.0F, 3.0F, 4.0F, 5.0F});
  EXPECT_EQ(wrote.count, 4u);
  EXPECT_FALSE(wrote.closed);
  EXPECT_FALSE(fifo.write_ready());
  EXPECT_TRUE(fifo.read_ready());
  EXPECT_EQ(write_items(fifo, {9.0F}).count, 0u);
  // A read larger than the contents stops short at empty, not EOS.
  std::vector<float> out(6, -1.0F);
  const TryTransfer read = fifo.try_read_burst(out);
  EXPECT_EQ(read.count, 4u);
  EXPECT_FALSE(read.closed);
  for (std::size_t i = 0; i < read.count; ++i) {
    EXPECT_EQ(out[i], static_cast<float>(i));
  }
  EXPECT_TRUE(fifo.write_ready());
  EXPECT_FALSE(fifo.read_ready());
  const TryTransfer empty = fifo.try_read_burst(out);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_FALSE(empty.closed);
  // The ring wraps: write and read across the end of the buffer.
  EXPECT_EQ(write_items(fifo, {10.0F, 11.0F, 12.0F}).count, 3u);
  ASSERT_EQ(fifo.try_read_burst(std::span<float>(out).first(3)).count, 3u);
  EXPECT_EQ(out[0], 10.0F);
  EXPECT_EQ(out[2], 12.0F);
}

TEST(Fifo, StatsTrackOccupancyAndBlocks) {
  Stream fifo(4);
  ASSERT_EQ(write_items(fifo, {1.0F, 1.0F, 1.0F, 1.0F}).count, 4u);
  FifoStats stats = fifo.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.max_occupancy, 4u);
  EXPECT_EQ(stats.total_writes, 4u);
  EXPECT_EQ(stats.blocked_reads, 0u);
  EXPECT_EQ(stats.blocked_writes, 0u);
  // A transfer that stops short is not a block: only the scheduler's
  // suspensions count.
  EXPECT_EQ(write_items(fifo, {2.0F}).count, 0u);
  EXPECT_EQ(fifo.stats().blocked_writes, 0u);
  fifo.record_write_block();
  fifo.record_read_block();
  fifo.record_read_block();
  stats = fifo.stats();
  EXPECT_EQ(stats.blocked_writes, 1u);
  EXPECT_EQ(stats.blocked_reads, 2u);
}

TEST(Fifo, ZeroCapacityClampedToOne) {
  Stream fifo(0);
  EXPECT_EQ(fifo.capacity(), 1u);
  EXPECT_EQ(write_items(fifo, {3.0F, 4.0F}).count, 1u);
  float value = 0.0F;
  ASSERT_EQ(fifo.try_read_burst(std::span<float>(&value, 1)).count, 1u);
  EXPECT_EQ(value, 3.0F);
}

TEST(Fifo, WriteAfterCloseIsAnError) {
  Stream fifo(4);
  ASSERT_EQ(write_items(fifo, {1.0F}).count, 1u);
  fifo.close();
  EXPECT_TRUE(fifo.write_ready());  // ready: the write fails fast
  const TryTransfer wrote = write_items(fifo, {3.0F, 4.0F});
  EXPECT_EQ(wrote.count, 0u);
  EXPECT_TRUE(wrote.closed);
  float value = 0.0F;
  const TryTransfer read = fifo.try_read_burst(std::span<float>(&value, 1));
  ASSERT_EQ(read.count, 1u);  // pre-close element still drains
  EXPECT_EQ(value, 1.0F);
}

TEST(Fifo, CloseAfterPartialReadThenEos) {
  // A read of 10 with 3 published returns the 3; after close, the next
  // read reports EOS.
  Stream fifo(4);
  std::vector<float> out(10, -1.0F);
  ASSERT_EQ(write_items(fifo, {0.0F, 1.0F, 2.0F}).count, 3u);
  const TryTransfer first = fifo.try_read_burst(out);
  EXPECT_EQ(first.count, 3u);
  EXPECT_FALSE(first.closed);
  for (std::size_t i = 0; i < first.count; ++i) {
    EXPECT_EQ(out[i], static_cast<float>(i));
  }
  fifo.close();
  EXPECT_TRUE(fifo.read_ready());
  const TryTransfer eos = fifo.try_read_burst(out);
  EXPECT_EQ(eos.count, 0u);
  EXPECT_TRUE(eos.closed);
}

TEST(Fifo, CloseBeforeReadDrainsThenEos) {
  // Published before close, read after: the 3 elements come back in the
  // same call that reports EOS, and EOS stays.
  Stream fifo(4);
  ASSERT_EQ(write_items(fifo, {0.0F, 1.0F, 2.0F}).count, 3u);
  fifo.close();
  std::vector<float> out(10, -1.0F);
  const TryTransfer drained = fifo.try_read_burst(out);
  EXPECT_EQ(drained.count, 3u);
  EXPECT_TRUE(drained.closed);
  EXPECT_EQ(out[2], 2.0F);
  const TryTransfer eos = fifo.try_read_burst(out);
  EXPECT_EQ(eos.count, 0u);
  EXPECT_TRUE(eos.closed);
}

TEST(Fifo, ReopenRearmsStreamAndResetsStats) {
  Stream fifo(4, "s");
  for (int run = 0; run < 3; ++run) {
    ASSERT_EQ(write_items(fifo, {1.0F, 2.0F, 3.0F}).count, 3u);
    fifo.record_write_block();
    fifo.record_read_block();
    fifo.close();
    float drained[3] = {};
    const TryTransfer read = fifo.try_read_burst(std::span<float>(drained));
    ASSERT_EQ(read.count, 3u);
    EXPECT_EQ(drained[2], 3.0F);
    EXPECT_TRUE(write_items(fifo, {9.0F}).closed);  // still closed
    const FifoStats stats = fifo.stats();
    EXPECT_EQ(stats.total_writes, 3u);  // per-run, not cumulative
    EXPECT_EQ(stats.max_occupancy, 3u);
    EXPECT_EQ(stats.blocked_writes, 1u);
    EXPECT_EQ(stats.blocked_reads, 1u);
    fifo.reopen();
    EXPECT_FALSE(fifo.closed());
    EXPECT_FALSE(fifo.read_ready());
    const FifoStats cleared = fifo.stats();
    EXPECT_EQ(cleared.total_writes, 0u);
    EXPECT_EQ(cleared.max_occupancy, 0u);
    EXPECT_EQ(cleared.blocked_writes, 0u);
    EXPECT_EQ(cleared.blocked_reads, 0u);
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

/// Sends 0, 1, 2, ... in runs of 1..13 elements: every fourth run element
/// by element, the rest as one burst, so the writes land at every wrap
/// offset of a small ring.
class SequenceSource final : public Module {
 public:
  SequenceSource(Stream& out, std::size_t count)
      : Module("source"), out_(out), count_(count), burst_(13) {}
  Fire fire(const RunContext&) override {
    std::size_t next = 0;
    std::size_t step = 1;
    while (next < count_) {
      const std::size_t n = std::min(step, count_ - next);
      if (step % 4 == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          CONDOR_CO_WRITE_ONE(out_, static_cast<float>(next + i),
                              internal_error("source: stream closed"));
        }
      } else {
        std::iota(burst_.begin(),
                  burst_.begin() + static_cast<std::ptrdiff_t>(n),
                  static_cast<float>(next));
        CONDOR_CO_WRITE_BURST(out_, std::span<const float>(burst_).first(n),
                              internal_error("source: stream closed"));
      }
      next += n;
      step = step % 13 + 1;  // 1..13, co-prime with the capacities
    }
    out_.close();
    co_return Status::ok();
  }

 private:
  Stream& out_;
  std::size_t count_;
  std::vector<float> burst_;
};

/// Reads the sequence back in runs of 1..11 (every fifth run element by
/// element) and fails on the first element out of order, then expects EOS.
class SequenceSink final : public Module {
 public:
  SequenceSink(Stream& in, std::size_t count)
      : Module("sink"), in_(in), count_(count), chunk_(11) {}
  Fire fire(const RunContext&) override {
    std::size_t expected = 0;
    std::size_t step = 3;
    while (expected < count_) {
      const std::size_t n = std::min(step, count_ - expected);
      if (step % 5 == 0) {
        for (std::size_t i = 0; i < n; ++i) {
          float value = -1.0F;
          CONDOR_CO_READ_ONE(in_, value, internal_error("sink: early EOS"));
          if (value != static_cast<float>(expected + i)) {
            co_return internal_error("sink: out of order");
          }
        }
      } else {
        CONDOR_CO_READ_EXACT(in_, std::span<float>(chunk_).first(n),
                             internal_error("sink: early EOS"));
        for (std::size_t i = 0; i < n; ++i) {
          if (chunk_[i] != static_cast<float>(expected + i)) {
            co_return internal_error("sink: out of order");
          }
        }
      }
      expected += n;
      step = step % 11 + 1;
    }
    float extra = 0.0F;
    bool got = false;
    CONDOR_CO_READ_ONE_OR_EOS(in_, extra, got);
    co_return got ? internal_error("sink: data past the end") : Status::ok();
  }

 private:
  Stream& in_;
  std::size_t count_;
  std::vector<float> chunk_;
};

/// Reads one element or EOS from `in`; records what it saw.
class EosReader final : public Module {
 public:
  EosReader(Stream& in, bool& saw_eos)
      : Module("eos_reader"), in_(in), saw_eos_(saw_eos) {}
  Fire fire(const RunContext&) override {
    float value = 0.0F;
    bool got = false;
    CONDOR_CO_READ_ONE_OR_EOS(in_, value, got);
    saw_eos_ = !got;
    co_return Status::ok();
  }

 private:
  Stream& in_;
  bool& saw_eos_;
};

/// Closes `stream` without writing to it.
class Closer final : public Module {
 public:
  explicit Closer(Stream& stream) : Module("closer"), stream_(stream) {}
  Fire fire(const RunContext&) override {
    stream_.close();
    co_return Status::ok();
  }

 private:
  Stream& stream_;
};

/// Reads one element, then fails without closing its input.
class FailingConsumer final : public Module {
 public:
  explicit FailingConsumer(Stream& in) : Module("failing_consumer"), in_(in) {}
  Fire fire(const RunContext&) override {
    float value = 0.0F;
    CONDOR_CO_READ_ONE(in_, value, internal_error("failing_consumer: EOS"));
    co_return invalid_input("consumer rejected its input");
  }

 private:
  Stream& in_;
};

constexpr std::size_t kWorkerCounts[] = {1, 2};

GraphRunOptions with_workers(std::size_t workers) {
  GraphRunOptions options;
  options.workers = workers;
  return options;
}

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

TEST(Graph, CoprimeScalarAndBurstSizesKeepOrder) {
  // Producer and consumer mix scalar and burst transfers of co-prime sizes
  // against capacity-1 and capacity-7 rings, so every partial transfer,
  // wrap offset and suspension on both endpoints is hit.
  constexpr std::size_t kCount = 20000;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7}}) {
    for (const std::size_t workers : kWorkerCounts) {
      Graph graph;
      Stream& stream = graph.make_stream(capacity, "seq");
      graph.add_module<SequenceSource>(stream, kCount);
      graph.add_module<SequenceSink>(stream, kCount);
      ThreadPool pool(1);
      const Status status = graph.run({}, &pool, with_workers(workers));
      ASSERT_TRUE(status.is_ok())
          << "capacity " << capacity << ", workers " << workers << ": "
          << status.to_string();
      const FifoStats stats = graph.stream_stats()[0];
      EXPECT_EQ(stats.total_writes, kCount) << capacity << "/" << workers;
      EXPECT_LE(stats.max_occupancy, capacity);
      if (capacity == 1) {
        // A 1-slot ring cannot hold a burst: the writer must suspend.
        EXPECT_GE(stats.blocked_writes, 1u) << workers;
      }
    }
  }
}

TEST(Graph, SuspendedReaderSeesEosOnClose) {
  for (const std::size_t workers : kWorkerCounts) {
    Graph graph;
    Stream& stream = graph.make_stream(4, "empty");
    bool saw_eos = false;
    graph.add_module<EosReader>(stream, saw_eos);
    graph.add_module<Closer>(stream);
    ThreadPool pool(1);
    ASSERT_TRUE(graph.run({}, &pool, with_workers(workers)).is_ok()) << workers;
    EXPECT_TRUE(saw_eos) << workers;
    const std::uint64_t blocked_reads = graph.stream_stats()[0].blocked_reads;
    if (workers == 1) {
      // One worker fires in module order: the reader suspends on the empty
      // stream before the closer runs, and the close wakes it.
      EXPECT_EQ(blocked_reads, 1u);
      EXPECT_EQ(graph.module_stats()[0].blocked, 1u);
      EXPECT_EQ(graph.module_stats()[0].fires, 2u);
    } else {
      EXPECT_LE(blocked_reads, 1u);
    }
  }
}

TEST(Graph, WriterSuspendedOnFullStreamGetsConsumerError) {
  // The consumer fails without closing its input, so the writer stays
  // suspended on a full stream with no pending wake. The run must tear the
  // graph down and report the consumer's error, not a wedge or a hang.
  for (const std::size_t workers : kWorkerCounts) {
    Graph graph;
    Stream& stream = graph.make_stream(1, "full");
    graph.add_module<ProducerModule>(stream, 100);
    graph.add_module<FailingConsumer>(stream);
    ThreadPool pool(1);
    const Status status = graph.run({}, &pool, with_workers(workers));
    ASSERT_FALSE(status.is_ok()) << workers;
    EXPECT_EQ(status.code(), StatusCode::kInvalidInput) << workers;
    EXPECT_NE(status.message().find("consumer rejected its input"),
              std::string::npos)
        << status.to_string();
    EXPECT_EQ(status.message().find("wedge"), std::string::npos)
        << status.to_string();
    EXPECT_GE(graph.stream_stats()[0].blocked_writes, 1u) << workers;
    EXPECT_GE(graph.module_stats()[0].blocked, 1u) << workers;
    EXPECT_TRUE(graph.streams()[0]->closed()) << workers;
  }
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
    ASSERT_TRUE(graph.run({}, &pool).is_ok()) << "run " << run;
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
    ASSERT_TRUE(graph.run({}, &pool, with_workers(workers)).is_ok()) << workers;
    EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0) << workers;
    EXPECT_LE(graph.last_run_workers(), graph.module_count()) << workers;
  }
}

}  // namespace
}  // namespace condor::dataflow
