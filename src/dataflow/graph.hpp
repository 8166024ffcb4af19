// Dataflow graph container and module scheduler.
//
// Owns the modules and stream FIFOs of one accelerator instance and
// executes them to completion under a readiness-driven cooperative
// scheduler on the caller's ThreadPool. Modules are resumable firings
// (Module::fire) that run until a stream would block, then suspend; FIFO
// wakeup hooks re-enqueue a module only once its blocked stream turns
// ready. Any worker count executes any graph — a 40-module design runs on
// 2 workers, or purely sequentially on the calling thread when the
// effective worker count is one — so the pool never needs one OS thread
// per module.
//
// Execution is KPN-faithful — blocking semantics, per-stream FIFO order,
// deterministic dataflow — so results are bit-identical regardless of
// worker count. The first module error is reported (by module order); a
// wedged run (every module blocked, typically after a module error left
// channels unserviced) is torn down by closing all streams, which fails
// the remaining firings fast instead of hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/module.hpp"

namespace condor::dataflow {

/// Per-module execution counters of the most recent run.
struct ModuleRunStats {
  std::string_view name;
  std::uint64_t fires = 0;    ///< times the module was resumed
  std::uint64_t blocked = 0;  ///< times it suspended on a stream
};

struct GraphRunOptions {
  /// Worker-thread target: 0 means min(thread_budget(), module_count());
  /// any value is clamped to [1, module_count()]. An effective count of 1
  /// runs sequentially on the calling thread.
  std::size_t workers = 0;
};

class Graph {
 public:
  /// Creates a stream FIFO owned by the graph.
  Stream& make_stream(std::size_t capacity, std::string name);

  /// Adds a module (construction order is irrelevant to execution).
  template <typename M, typename... Args>
  M& add_module(Args&&... args) {
    auto module = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *module;
    modules_.push_back(std::move(module));
    return ref;
  }

  /// Runs every module to completion on the calling thread plus `pool`
  /// tasks, up to the worker target in `options` (sequential on the caller
  /// when pool is nullptr). Returns the first module failure (by module
  /// order), or OK.
  Status run(const RunContext& ctx = {}, ThreadPool* pool = nullptr,
             const GraphRunOptions& options = {});

  /// Re-arms every stream (clears EOS + stats) for another run over the
  /// same topology. Only valid between runs.
  void reopen_streams();

  [[nodiscard]] std::size_t module_count() const noexcept { return modules_.size(); }
  [[nodiscard]] std::size_t stream_count() const noexcept { return streams_.size(); }

  /// Post-run FIFO statistics (name + counters), for the ablation benches.
  [[nodiscard]] std::vector<FifoStats> stream_stats() const;
  [[nodiscard]] const std::vector<std::unique_ptr<Stream>>& streams() const noexcept {
    return streams_;
  }

  /// Per-module fire/blocked counters of the most recent run.
  [[nodiscard]] std::vector<ModuleRunStats> module_stats() const;

  /// Worker threads (including the caller) of the most recent run.
  [[nodiscard]] std::size_t last_run_workers() const noexcept {
    return last_run_workers_;
  }

 private:
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::size_t last_run_workers_ = 0;
};

}  // namespace condor::dataflow
