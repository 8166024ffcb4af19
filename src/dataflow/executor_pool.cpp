#include "dataflow/executor_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace condor::dataflow {
namespace {

/// Chunks per instance the dynamic splitter aims for: enough granularity
/// that a straggler sheds load to its peers, small enough that per-chunk
/// dispatch cost (stream reopen + pipeline fill) stays amortized.
constexpr std::size_t kChunksPerInstance = 4;

std::size_t pick_chunk_size(std::size_t batch, std::size_t drivers) {
  if (drivers <= 1) {
    // A lone driver has no peers to shed load to; chunking would only
    // multiply the per-chunk reopen + pipeline-fill cost.
    return batch;
  }
  return std::max<std::size_t>(1, batch / (drivers * kChunksPerInstance));
}

}  // namespace

Status dispatch_chunks(
    std::size_t batch, std::size_t workers, std::size_t chunk_size,
    const std::function<Status(std::size_t worker, std::size_t begin,
                               std::size_t end)>& run_chunk) {
  if (batch == 0) {
    return Status::ok();
  }
  if (workers == 0 || chunk_size == 0) {
    return invalid_input("dispatch_chunks needs workers and a chunk size");
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> poisoned{false};
  std::mutex error_mutex;
  Status first_error = Status::ok();

  const auto drive = [&](std::size_t worker) {
    for (;;) {
      if (poisoned.load(std::memory_order_acquire)) {
        return;
      }
      const std::size_t begin =
          cursor.fetch_add(chunk_size, std::memory_order_relaxed);
      if (begin >= batch) {
        return;
      }
      const std::size_t end = std::min(begin + chunk_size, batch);
      const Status status = run_chunk(worker, begin, end);
      if (!status.is_ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.is_ok()) {
          first_error = status;
        }
        poisoned.store(true, std::memory_order_release);
        return;
      }
    }
  };

  if (workers == 1 || batch <= chunk_size) {
    drive(0);
  } else {
    // One driver thread per instance; the calling thread drives instance 0
    // so a pool of N instances costs N-1 extra threads per dispatch.
    std::vector<std::thread> drivers;
    drivers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      drivers.emplace_back(drive, w);
    }
    drive(0);
    for (std::thread& driver : drivers) {
      driver.join();
    }
  }
  return first_error;
}

Result<ExecutorPool> ExecutorPool::create(hw::AcceleratorPlan plan,
                                          nn::WeightStore weights,
                                          std::size_t instances) {
  return create(std::make_shared<const hw::AcceleratorPlan>(std::move(plan)),
                std::make_shared<const nn::WeightStore>(std::move(weights)),
                instances);
}

Result<ExecutorPool> ExecutorPool::create(
    std::shared_ptr<const hw::AcceleratorPlan> plan,
    std::shared_ptr<const nn::WeightStore> weights, std::size_t instances) {
  if (instances == 0) {
    return invalid_input("executor pool needs at least one instance");
  }
  ExecutorPool pool(std::move(plan), std::move(weights));
  // All replicas run on one host-sized pool: the cooperative scheduler
  // needs no per-module worker floor, so worker demand is a property of
  // the machine, not of instances * module_count. Replicas share the same
  // workers instead of carving the budget into per-instance slices.
  pool.shared_pool_ =
      std::make_unique<ThreadPool>(std::max<std::size_t>(1, thread_budget()));
  pool.executors_.reserve(instances);
  pool.utilization_.resize(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    CONDOR_ASSIGN_OR_RETURN(AcceleratorExecutor executor,
                            AcceleratorExecutor::create(pool.plan_,
                                                        pool.weights_));
    executor.set_shared_pool(pool.shared_pool_.get());
    pool.executors_.push_back(
        std::make_unique<AcceleratorExecutor>(std::move(executor)));
  }
  return pool;
}

Result<std::vector<Tensor>> ExecutorPool::run_batch(
    std::span<const Tensor> inputs) {
  const std::size_t batch = inputs.size();
  pool_stats_ = PoolRunStats{};
  pool_stats_.batch = batch;
  pool_stats_.images_per_instance.assign(executors_.size(), 0);
  if (batch == 0) {
    return std::vector<Tensor>{};
  }
  if (executors_.size() == 1) {
    pool_stats_.chunk_size = batch;
    pool_stats_.images_per_instance[0] = batch;
    const auto start = std::chrono::steady_clock::now();
    auto outputs = executors_[0]->run_batch(inputs);
    utilization_[0].busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (outputs.is_ok()) {
      utilization_[0].images += batch;
      ++utilization_[0].chunks;
    }
    return outputs;
  }

  // Drivers beyond the host's thread budget cannot run concurrently — they
  // would only time-slice one core while paying the chunking overhead
  // (smaller chunks mean more stream-reopen/pipeline-fill cycles). Cap the
  // concurrent drivers at the budget; surplus replicas simply draw no
  // chunks this batch, so N instances on a small host cost the same as the
  // largest count the host can actually parallelize.
  const std::size_t drivers = std::min(
      executors_.size(), std::max<std::size_t>(1, thread_budget()));
  const std::size_t chunk_size = pick_chunk_size(batch, drivers);
  pool_stats_.chunk_size = chunk_size;
  std::vector<Tensor> outputs(batch);
  // images_per_instance slots are written only by that instance's driver;
  // outputs[begin, end) only by the chunk's owner — no synchronization
  // needed beyond the dispatcher's join.
  std::vector<std::size_t>& census = pool_stats_.images_per_instance;
  const Status status = dispatch_chunks(
      batch, drivers, chunk_size,
      [&](std::size_t instance, std::size_t begin, std::size_t end) {
        const auto start = std::chrono::steady_clock::now();
        auto chunk_out =
            executors_[instance]->run_batch(inputs.subspan(begin, end - begin));
        utilization_[instance].busy_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (!chunk_out.is_ok()) {
          return chunk_out.status();
        }
        std::move(chunk_out.value().begin(), chunk_out.value().end(),
                  outputs.begin() + begin);
        census[instance] += end - begin;
        utilization_[instance].images += end - begin;
        ++utilization_[instance].chunks;
        return Status::ok();
      });
  CONDOR_RETURN_IF_ERROR(status);
  return outputs;
}

}  // namespace condor::dataflow
