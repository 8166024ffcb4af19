#include "dataflow/graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <mutex>
#include <utility>

#include "common/alloc_probe.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "dataflow/fire.hpp"

namespace condor::dataflow {

Stream& Graph::make_stream(std::size_t capacity, std::string name) {
  streams_.push_back(std::make_unique<Stream>(capacity, std::move(name)));
  return *streams_.back();
}

namespace {

// Module scheduling states for the cooperative run. The state machine
// guarantees each record sits in the ready ring at most once: only the
// kBlocked -> kReady CAS (in wake()) enqueues, and a record can reach
// kBlocked again only after being dequeued and resumed.
constexpr int kReady = 0;    ///< in the ready ring, awaiting a worker
constexpr int kRunning = 1;  ///< a worker is resuming the firing
constexpr int kBlocked = 2;  ///< suspended on a stream, hook registered
constexpr int kDone = 3;     ///< firing completed, status recorded

struct CoopRun;

/// Per-module scheduler record. Doubles as the FIFO wakeup hook for every
/// stream the module blocks on: one sticky hook per (module, endpoint)
/// suffices because wakes are permitted to be spurious — a resumed module
/// whose stream is still not ready simply re-blocks.
struct ModuleRec final : FifoWakeHook {
  Module* module = nullptr;
  Fire task;
  FireContext fire_ctx;
  std::coroutine_handle<> resume_handle;
  std::atomic<int> state{kReady};
  Status status;
  CoopRun* run = nullptr;

  void wake() noexcept override;
};

/// One cooperative graph execution. Held by shared_ptr so pool worker tasks
/// that start after the run already finished (the scheduler cannot cancel
/// queued submissions) observe `finished` on a still-valid object and exit
/// without touching the Graph.
struct CoopRun {
  explicit CoopRun(std::size_t module_count)
      : recs(module_count), ring(module_count) {}

  std::vector<ModuleRec> recs;
  Graph* graph = nullptr;

  std::mutex mutex;
  std::condition_variable cv;
  // Fixed-capacity ring of ready records (each enqueued at most once, so
  // module_count slots suffice). Pre-sized: push_ready runs inside FIFO
  // publish calls, i.e. inside module bodies whose steady state must not
  // allocate.
  std::vector<ModuleRec*> ring;
  std::size_t ring_head = 0;
  std::size_t ring_count = 0;
  std::size_t inflight = 0;  ///< resumes currently executing
  std::size_t done = 0;
  bool finished = false;
  bool torn_down = false;
  Status teardown_cause;

  void push_ready(ModuleRec* rec) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ring[(ring_head + ring_count) % ring.size()] = rec;
      ++ring_count;
    }
    cv.notify_one();
  }

  /// Resumes `rec` at its innermost suspension point and returns when the
  /// firing either completed or genuinely suspended on a stream. The TLS
  /// fire context/arena follow the firing to whichever worker runs it.
  void resume(ModuleRec* rec) {
    FireContext* prev_ctx = std::exchange(active_fire_context(), &rec->fire_ctx);
    FrameArena* prev_arena =
        std::exchange(active_frame_arena(), &rec->module->frame_arena());
    ++rec->module->counters().fires;
    const std::coroutine_handle<> handle = rec->resume_handle;
    {
      // The zero-allocation steady-state contract covers executed module
      // code; the probe scope is thread-local RAII and so wraps each resume
      // rather than living inside the (thread-migrating) coroutine.
      const common::AllocProbe::Scope probe_scope;
      handle.resume();
    }
    active_frame_arena() = prev_arena;
    active_fire_context() = prev_ctx;
    // Past this point `rec` must not be touched: if the firing suspended,
    // a wakeup may already have handed it to another worker.
  }

  /// Worker loop: drain ready records; detect completion and wedges. Runs
  /// on the calling thread and on worker-1 pool tasks.
  void work() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      if (finished) {
        return;
      }
      if (ring_count > 0) {
        ModuleRec* rec = ring[ring_head];
        ring_head = (ring_head + 1) % ring.size();
        --ring_count;
        ++inflight;
        rec->state.store(kRunning, std::memory_order_relaxed);
        lock.unlock();
        resume(rec);
        lock.lock();
        --inflight;
        continue;
      }
      if (done == recs.size() && inflight == 0) {
        // inflight == 0 matters even with every firing done: a worker that
        // tore down a wedge counts as inflight while it walks the graph's
        // streams outside the lock, and the caller destroys the graph as
        // soon as work() returns.
        finished = true;
        cv.notify_all();
        return;
      }
      if (done < recs.size() && inflight == 0) {
        // Nothing ready, nothing running, not everyone done: every wake
        // originates inside some resume, so no future wake can arrive —
        // the graph is wedged. Tear it down by closing all streams; the
        // woken firings fail fast and drain.
        stall(lock);
        continue;
      }
      cv.wait(lock);
    }
  }

  /// The wedge report: each blocked module, the endpoint it waits on and
  /// that stream's occupancy/capacity, which tells a full channel nobody
  /// drains from an empty one nobody feeds. Called under the run mutex with
  /// nothing in flight, so every record and stream is quiescent.
  [[nodiscard]] std::string describe_wedge() const {
    std::string message =
        "dataflow wedge: every module blocked with no pending wake";
    for (const ModuleRec& rec : recs) {
      const Stream* stream = rec.fire_ctx.blocked_stream;
      if (rec.state.load(std::memory_order_relaxed) != kBlocked ||
          stream == nullptr) {
        continue;
      }
      message += strings::format(
          "; '%s' waits to %s '%s' (%zu/%zu)", rec.module->name().c_str(),
          rec.fire_ctx.blocked_op == StreamOp::kRead ? "read" : "write",
          stream->name().c_str(), stream->occupancy(), stream->capacity());
    }
    return message;
  }

  /// Wedge teardown, called with `lock` held.
  void stall(std::unique_lock<std::mutex>& lock) {
    if (torn_down) {
      // Post-teardown every stream is closed, so no firing can suspend
      // again and all must drain; a second stall is unreachable. Fail
      // defensively rather than spinning.
      if (teardown_cause.is_ok()) {
        teardown_cause = internal_error("dataflow wedge after teardown");
      }
      finished = true;
      cv.notify_all();
      return;
    }
    torn_down = true;
    // The true cause is the lowest-index module error that existed at
    // teardown time; errors recorded later are close-induced cascades.
    for (const ModuleRec& rec : recs) {
      if (rec.state.load(std::memory_order_relaxed) == kDone &&
          !rec.status.is_ok()) {
        teardown_cause = rec.status;
        break;
      }
    }
    if (teardown_cause.is_ok()) {
      teardown_cause = internal_error(describe_wedge());
    }
    // Count as inflight while outside the lock: the drained firings bump
    // `done` to the total on other workers, and the run must not finish
    // (freeing the graph under us) until the close loop is over.
    ++inflight;
    lock.unlock();
    // Closing invokes wakeup hooks, which re-acquire the run mutex.
    for (const auto& stream : graph->streams()) {
      stream->close();
    }
    lock.lock();
    --inflight;
  }
};

void ModuleRec::wake() noexcept {
  // Hooks are sticky, so steady-state publishes wake a module that is
  // happily running; the load keeps those on a read-only fast path and
  // reserves the CAS for genuinely suspended records.
  if (state.load(std::memory_order_seq_cst) != kBlocked) {
    return;
  }
  int expected = kBlocked;
  if (state.compare_exchange_strong(expected, kReady,
                                    std::memory_order_seq_cst)) {
    run->push_ready(this);
  }
}

}  // namespace

/// Registers the wakeup hook on the blocked stream, publishes the blocked
/// state, then re-checks readiness (Dekker handshake against the peer's
/// wake). The suspension always stands; when the re-check finds the stream
/// already ready, the record wakes itself through the ready ring rather
/// than cancelling the suspension inline.
void suspend_on_stream(FireContext& fc) noexcept {
  auto* rec = static_cast<ModuleRec*>(fc.user);
  rec->resume_handle = fc.resume_point;
  // Counters must be bumped before the kBlocked store: the instant the
  // store lands, a waker may hand the record to another worker, and nothing
  // after that may touch non-atomic per-module state.
  ++rec->module->counters().blocked;
  Stream& stream = *fc.blocked_stream;
  const bool is_read = fc.blocked_op == StreamOp::kRead;
  if (is_read) {
    stream.record_read_block();
    stream.set_reader_hook(rec);
  } else {
    stream.record_write_block();
    stream.set_writer_hook(rec);
  }
  rec->state.store(kBlocked, std::memory_order_seq_cst);
  stream.waiter_sync();
  if (is_read ? stream.read_ready() : stream.write_ready()) {
    // The stream turned ready before the registration committed, so no
    // transition wake is coming: self-deliver one through the ready ring,
    // exactly as a waker would. The suspension must stand (never resume
    // inline): a bare kBlocked -> kRunning CAS here cannot tell WHICH
    // suspension it cancels — a stale-hook spurious wake landing in this
    // window can have re-fired the record on another worker and re-blocked
    // it at a later suspension point (ABA), and an inline resume would then
    // re-enter the frame at the stale resume label. Routing through the
    // ring instead makes the worst case a spurious re-fire, which the
    // design tolerates, and the popping worker always reads the freshest
    // resume_handle.
    rec->wake();
  }
}

/// Root-firing completion: records the status, marks the module done, and
/// bumps the run's done count. Runs at the firing's final-suspend point
/// (frame already suspended), so the run owner may destroy the frame as
/// soon as it observes the count.
void complete_firing(FireContext& fc, Status&& status) {
  auto* rec = static_cast<ModuleRec*>(fc.user);
  rec->status = std::move(status);
  if (!rec->status.is_ok()) {
    CONDOR_LOG_ERROR("dataflow")
        << "module '" << rec->module->name()
        << "' failed: " << rec->status.to_string();
  }
  rec->state.store(kDone, std::memory_order_relaxed);
  CoopRun& run = *rec->run;
  {
    std::lock_guard<std::mutex> lock(run.mutex);
    ++run.done;
  }
  // The worker returning from this resume re-evaluates done==total itself;
  // idle peers only need a nudge when this was the last firing.
  run.cv.notify_all();
}

Status Graph::run(const RunContext& ctx, ThreadPool* pool,
                  const GraphRunOptions& options) {
  if (modules_.empty()) {
    return Status::ok();
  }
  // Effective worker count: caller + (workers-1) pool tasks, never more
  // than one per module, sequential on the caller when it comes out as 1.
  std::size_t workers = options.workers != 0 ? options.workers : thread_budget();
  workers = std::clamp<std::size_t>(workers, 1, modules_.size());
  if (pool == nullptr) {
    workers = 1;
  }
  last_run_workers_ = workers;

  auto run = std::make_shared<CoopRun>(modules_.size());
  run->graph = this;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    ModuleRec& rec = run->recs[i];
    rec.module = modules_[i].get();
    rec.run = run.get();
    rec.module->counters() = Module::FireCounters{};
    rec.fire_ctx.user = &rec;
    // Create the root firing with this record's context/arena active so the
    // promise captures the right origin and the frame lands in the module's
    // arena.
    FireContext* prev_ctx = std::exchange(active_fire_context(), &rec.fire_ctx);
    FrameArena* prev_arena =
        std::exchange(active_frame_arena(), &rec.module->frame_arena());
    rec.task = rec.module->fire(ctx);
    active_frame_arena() = prev_arena;
    active_fire_context() = prev_ctx;
    rec.resume_handle = rec.task.handle();
    // Seed the ready ring directly: no workers are running yet.
    run->ring[i] = &rec;
  }
  run->ring_count = modules_.size();

  for (std::size_t w = 1; w < workers; ++w) {
    pool->submit([run] { run->work(); });
  }
  run->work();

  // The run is finished: clear the sticky hooks (streams outlive this run)
  // and destroy the firings before their modules' arenas see further use.
  for (const auto& stream : streams_) {
    stream->set_reader_hook(nullptr);
    stream->set_writer_hook(nullptr);
  }
  Status result = Status::ok();
  if (run->torn_down) {
    result = run->teardown_cause;
  } else {
    for (const ModuleRec& rec : run->recs) {
      if (!rec.status.is_ok()) {
        result = rec.status;
        break;
      }
    }
  }
  for (ModuleRec& rec : run->recs) {
    rec.task.reset();
  }
  return result;
}

void Graph::reopen_streams() {
  for (const auto& stream : streams_) {
    stream->reopen();
  }
}

std::vector<FifoStats> Graph::stream_stats() const {
  std::vector<FifoStats> out;
  out.reserve(streams_.size());
  for (const auto& stream : streams_) {
    out.push_back(stream->stats());
  }
  return out;
}

std::vector<ModuleRunStats> Graph::module_stats() const {
  std::vector<ModuleRunStats> out;
  out.reserve(modules_.size());
  for (const auto& module : modules_) {
    const Module::FireCounters& counters = module->counters();
    out.push_back(ModuleRunStats{module->name(), counters.fires, counters.blocked});
  }
  return out;
}

}  // namespace condor::dataflow
