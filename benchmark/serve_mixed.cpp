// serve-mixed: LeNet float32 on a 2-instance ExecutorPool behind
// serve::Server. Phase A is an open loop of an interactive tenant (Poisson
// single images) and a bulk tenant (Poisson 16-image submit_many bursts);
// each request is timed from when it was due. Phase B is a closed loop of
// 64 outstanding single images that measures saturation throughput.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "serve/server.hpp"

namespace condor::bench {
namespace {

constexpr std::size_t kInstances = 2;
constexpr std::size_t kImages = 256;
constexpr double kInteractiveRate = 300.0;  // images per second
constexpr double kBurstRate = 10.0;         // bulk bursts per second
constexpr std::size_t kBurstSize = 16;
constexpr std::size_t kOutstanding = 64;    // phase B closed-loop depth
constexpr double kWarmupSeconds = 1.0;      // phase B, not measured
constexpr std::size_t kInteractive = 0;     // tenant indices
constexpr std::size_t kBulk = 1;

/// now_s() readings of one phase-A request. The generator writes the
/// submit fields, the backend the batch fields (traced runs only) and the
/// collector `ready`; the future's resolution orders the backend's writes
/// before the collector's reads.
struct RequestRecord {
  std::size_t tenant = 0;
  std::size_t image = 0;
  double due = 0.0;
  double submit_begin = 0.0;
  double submit_end = 0.0;
  std::uint64_t batch = 0;
  double batch_begin = 0.0;
  double pool_begin = 0.0;
  double pool_end = 0.0;
  double batch_end = 0.0;
  double ready = 0.0;
};

struct BatchRecord {
  double service_s = 0.0;
  double pool_s = 0.0;
  std::size_t size = 0;
};

/// A serve::Backend that forwards to the pool and, in the traced run,
/// times each batch and attributes its inputs to their requests by buffer
/// address: the server moves each submitted Tensor into its batch, and a
/// move keeps the buffer.
class TimingBackend : public serve::Backend {
 public:
  explicit TimingBackend(dataflow::ExecutorPool& pool) : pool_(pool) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "timing-pool";
  }

  /// Turns on batch timing and request attribution into `records`.
  void attach(std::vector<RequestRecord>* records) { records_ = records; }

  /// Registers the request whose input buffer is `data` (before submit).
  void expect(const float* data, std::size_t request) {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_[data] = request;
  }

  Result<std::vector<Tensor>> run_batch(
      std::span<const Tensor> inputs) override {
    if (records_ == nullptr) {
      return pool_.run_batch(inputs);
    }
    const double batch_begin = now_s();
    std::vector<std::size_t> requests;
    requests.reserve(inputs.size());
    std::uint64_t batch = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const Tensor& input : inputs) {
        const auto it = pending_.find(input.raw());
        if (it != pending_.end()) {
          requests.push_back(it->second);
          pending_.erase(it);
        }
      }
      batch = batches_.size();
      batches_.emplace_back();
    }
    const double pool_begin = now_s();
    Result<std::vector<Tensor>> outputs = pool_.run_batch(inputs);
    const double pool_end = now_s();
    for (const std::size_t request : requests) {
      RequestRecord& record = (*records_)[request];
      record.batch = batch;
      record.batch_begin = batch_begin;
      record.pool_begin = pool_begin;
      record.pool_end = pool_end;
    }
    const double batch_end = now_s();
    for (const std::size_t request : requests) {
      (*records_)[request].batch_end = batch_end;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    batches_[batch] = {batch_end - batch_begin, pool_end - pool_begin,
                       inputs.size()};
    return outputs;
  }

  /// Per-batch timings of the traced run (read after the server drained).
  [[nodiscard]] std::vector<BatchRecord> batches() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }

 private:
  dataflow::ExecutorPool& pool_;
  std::vector<RequestRecord>* records_ = nullptr;
  mutable std::mutex mutex_;
  std::unordered_map<const float*, std::size_t> pending_;
  std::vector<BatchRecord> batches_;
};

/// The system under test. Members are destroyed in reverse order, so the
/// server drains and joins its dispatcher before the backend and the pool
/// go away.
struct ServeSystem {
  Model model;
  std::unique_ptr<dataflow::ExecutorPool> pool;
  std::unique_ptr<TimingBackend> backend;
  std::optional<serve::Server> server;
};

Result<std::unique_ptr<ServeSystem>> set_up(const std::vector<Tensor>& warm) {
  auto system = std::make_unique<ServeSystem>();
  CONDOR_ASSIGN_OR_RETURN(system->model, make_model("lenet"));
  CONDOR_ASSIGN_OR_RETURN(
      hw::AcceleratorPlan plan,
      hw::plan_accelerator(hw::with_default_annotations(system->model.network)));
  CONDOR_ASSIGN_OR_RETURN(
      dataflow::ExecutorPool pool,
      dataflow::ExecutorPool::create(std::move(plan), system->model.weights,
                                     kInstances));
  system->pool = std::make_unique<dataflow::ExecutorPool>(std::move(pool));
  system->backend = std::make_unique<TimingBackend>(*system->pool);
  serve::ServerOptions options;
  options.batcher.max_batch = 32;
  options.batcher.max_delay_seconds = 5e-3;
  std::vector<serve::TenantConfig> tenants = {
      {"interactive", serve::QosClass::kInteractive, 0, 256},
      {"bulk", serve::QosClass::kBulk, 0, 256}};
  CONDOR_ASSIGN_OR_RETURN(
      serve::Server server,
      serve::Server::create(options, std::move(tenants),
                            {system->backend.get()}));
  system->server.emplace(std::move(server));
  // One warm batch: compiles both instances and latches their weights.
  for (auto& future : system->server->submit_many(kInteractive, warm)) {
    Result<Tensor> output = future.get();
    if (!output.is_ok()) {
      return output.status();
    }
  }
  return system;
}

/// One submit call of the phase-A schedule: a single interactive image or
/// a bulk burst, due `due` seconds after the phase starts.
struct Submission {
  double due = 0.0;
  std::size_t tenant = 0;
  std::size_t first = 0;  ///< index of its first request
  std::size_t count = 0;
};

struct Pending {
  std::size_t request = 0;
  std::future<Result<Tensor>> future;
};

/// Hands a tenant's futures from the generator to its collector, in
/// submission order.
class Channel {
 public:
  void push(Pending pending) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
    }
    ready_.notify_one();
  }
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }
  std::optional<Pending> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) {
      return std::nullopt;
    }
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    return pending;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Pending> queue_;
  bool closed_ = false;
};

double exponential(Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

/// Poisson arrivals of both tenants over [0, duration), merged by due time.
std::vector<Submission> schedule(std::uint64_t seed, double duration,
                                 std::vector<RequestRecord>& records) {
  Rng rng(seed ^ 0x5e4e'0001ULL);
  std::vector<Submission> submissions;
  for (double t = exponential(rng, kInteractiveRate); t < duration;
       t += exponential(rng, kInteractiveRate)) {
    submissions.push_back({t, kInteractive, 0, 1});
  }
  for (double t = exponential(rng, kBurstRate); t < duration;
       t += exponential(rng, kBurstRate)) {
    submissions.push_back({t, kBulk, 0, kBurstSize});
  }
  std::sort(submissions.begin(), submissions.end(),
            [](const Submission& a, const Submission& b) { return a.due < b.due; });
  for (Submission& submission : submissions) {
    submission.first = records.size();
    for (std::size_t i = 0; i < submission.count; ++i) {
      RequestRecord record;
      record.tenant = submission.tenant;
      record.image = rng.bounded(kImages);
      records.push_back(record);
    }
  }
  return submissions;
}

/// When the request joined the queue, as seen from outside: when submit
/// returned, or when its batch began if the dispatcher was faster.
double queued_at(const RequestRecord& r) {
  return std::min(r.submit_end, r.batch_begin);
}

void add_request_spans(Trace& trace, std::size_t request,
                       const RequestRecord& r) {
  const auto id = static_cast<std::uint64_t>(request);
  const Trace::SpanId root = trace.add("request", r.due, r.ready, id);
  trace.add("serve.submit", r.submit_begin, queued_at(r), id, root);
  trace.add("serve.queue", queued_at(r), r.batch_begin, id, root);
  const Trace::SpanId batch =
      trace.add("serve.batch", r.batch_begin, r.batch_end, id, root);
  trace.add("pool.run_batch", r.pool_begin, r.pool_end, id, batch);
  trace.add("serve.demux", r.batch_end, r.ready, id, root);
}

}  // namespace

Result<Report> run_serve_mixed(const RunConfig& config, Tally& tally) {
  const Shape input_shape{1, 28, 28};
  const std::vector<Tensor> images =
      make_images(input_shape, kImages, config.seed);
  const std::vector<Tensor> warm(images.begin(), images.begin() + 32);

  std::unique_ptr<ServeSystem> system;
  CONDOR_ASSIGN_OR_RETURN(
      const double setup_s, repeated_setup(config.trace, [&]() -> Status {
        system.reset();
        CONDOR_ASSIGN_OR_RETURN(system, set_up(warm));
        return Status::ok();
      }));
  CONDOR_ASSIGN_OR_RETURN(
      const std::vector<Tensor> expected,
      oracle_outputs(system->model.network, system->model.weights,
                     nn::DataType::kFloat32, images));
  serve::Server& server = *system->server;
  dataflow::ExecutorPool& pool = *system->pool;

  // -- Phase A: open loop ------------------------------------------------
  const double phase_a = config.seconds * 2.0 / 3.0;
  std::vector<RequestRecord> records;
  const std::vector<Submission> submissions =
      schedule(config.seed, phase_a, records);
  if (config.trace != nullptr) {
    system->backend->attach(&records);
  }
  const serve::ServerStats stats_before = server.stats();
  const std::vector<dataflow::InstanceUtilization> util_before =
      pool.utilization();

  std::vector<double> latency_ms[2];
  Channel channels[2];
  std::vector<std::thread> collectors;
  for (std::size_t tenant : {kInteractive, kBulk}) {
    collectors.emplace_back([&, tenant] {
      while (std::optional<Pending> pending = channels[tenant].pop()) {
        Result<Tensor> output = pending->future.get();
        RequestRecord& record = records[pending->request];
        record.ready = now_s();
        if (!output.is_ok()) {
          tally.record(false);
          continue;
        }
        latency_ms[tenant].push_back((record.ready - record.due) * 1e3);
        tally.record(true, same_bytes(output.value(), expected[record.image]));
        if (config.trace != nullptr) {
          add_request_spans(*config.trace, pending->request, record);
        }
      }
    });
  }
  std::vector<double> late_ms;
  late_ms.reserve(submissions.size());
  const double start = now_s() + 0.05;
  for (const Submission& submission : submissions) {
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < submission.count; ++i) {
      inputs.push_back(images[records[submission.first + i].image]);
      if (config.trace != nullptr) {
        system->backend->expect(inputs.back().raw(), submission.first + i);
      }
    }
    const double due = start + submission.due;
    sleep_until_s(due);
    const double begin = now_s();
    std::vector<std::future<Result<Tensor>>> futures;
    if (submission.count == 1) {
      futures.push_back(server.submit(submission.tenant, std::move(inputs[0])));
    } else {
      futures = server.submit_many(submission.tenant, std::move(inputs));
    }
    const double end = now_s();
    late_ms.push_back((begin - due) * 1e3);
    for (std::size_t i = 0; i < submission.count; ++i) {
      RequestRecord& record = records[submission.first + i];
      record.due = due;
      record.submit_begin = begin;
      record.submit_end = end;
      channels[submission.tenant].push(
          {submission.first + i, std::move(futures[i])});
    }
  }
  for (Channel& channel : channels) {
    channel.close();
  }
  for (std::thread& collector : collectors) {
    collector.join();
  }
  const double phase_a_wall = now_s() - start;
  const serve::ServerStats stats_after = server.stats();
  const std::vector<dataflow::InstanceUtilization> util_after =
      pool.utilization();
  // The backend keeps timing phase B's batches; the per-layer metrics
  // describe phase A only.
  const std::vector<BatchRecord> phase_a_batches = system->backend->batches();
  if (config.trace != nullptr) {
    config.trace->add("phase.open_loop", start, start + phase_a_wall, 0);
  }

  // -- Phase B: closed loop, kOutstanding images in flight ---------------
  Rng rng(config.seed ^ 0x5e4e'0002ULL);
  std::deque<std::pair<std::size_t, std::future<Result<Tensor>>>> in_flight;
  const auto submit_one = [&] {
    const std::size_t image = rng.bounded(kImages);
    in_flight.emplace_back(image, server.submit(kInteractive, images[image]));
  };
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    submit_one();
  }
  const double measure_begin = now_s() + kWarmupSeconds;
  const double measure_end = measure_begin + config.seconds / 3.0;
  // Completions inside the window, and the first and last of their times.
  std::uint64_t completed = 0;
  double first_done = 0.0;
  double last_done = 0.0;
  while (!in_flight.empty()) {
    auto [image, future] = std::move(in_flight.front());
    in_flight.pop_front();
    Result<Tensor> output = future.get();
    const double t = now_s();
    if (t < measure_end) {
      submit_one();
    }
    if (!output.is_ok()) {
      tally.record(false);
      continue;
    }
    tally.record(true, same_bytes(output.value(), expected[image]));
    if (t >= measure_begin && t < measure_end) {
      first_done = completed == 0 ? t : first_done;
      last_done = t;
      ++completed;
    }
  }
  if (config.trace != nullptr) {
    config.trace->add("phase.closed_loop", measure_begin, measure_end, 0);
  }
  for (std::size_t i = 0; i < kInstances; ++i) {
    if (pool.instance(i).last_run_stats().weight_bytes_streamed != 0) {
      tally.gate_failures.fetch_add(1);
    }
  }

  Report report;
  const std::vector<double>& interactive = latency_ms[kInteractive];
  const std::vector<double>& bulk = latency_ms[kBulk];
  report.end_to_end = end_to_end_metrics(
      setup_s, quantile(interactive, 0.5),
      static_cast<double>(completed - 1) / (last_done - first_done));
  report.info = {
      {"interactive_latency_p90_ms", quantile(interactive, 0.9), "ms"},
      {"interactive_latency_p99_ms", quantile(interactive, 0.99), "ms"},
      {"interactive_samples", static_cast<double>(interactive.size()), "count"},
      {"bulk_latency_p50_ms", quantile(bulk, 0.5), "ms"},
      {"bulk_latency_p99_ms", quantile(bulk, 0.99), "ms"},
      {"bulk_samples", static_cast<double>(bulk.size()), "count"},
      {"loadgen_late_p99_ms", quantile(late_ms, 0.99), "ms"},
      {"saturation_completed", static_cast<double>(completed), "count"},
  };
  if (config.trace == nullptr) {
    return report;
  }

  // -- Per-layer metrics of the traced run --------------------------------
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> demux_us;
  for (std::size_t s = 0; s < submissions.size(); ++s) {
    const RequestRecord& r = records[submissions[s].first];
    submit_us.push_back((r.submit_end - r.submit_begin) * 1e6 /
                        static_cast<double>(submissions[s].count));
  }
  for (const RequestRecord& r : records) {
    if (r.batch_end > 0.0 && r.ready > 0.0) {
      queue_ms.push_back((r.batch_begin - queued_at(r)) * 1e3);
      demux_us.push_back((r.ready - r.batch_end) * 1e6);
    }
  }
  std::vector<double> service_ms;
  std::vector<double> pool_ms;
  std::vector<double> sizes;
  for (const BatchRecord& batch : phase_a_batches) {
    service_ms.push_back(batch.service_s * 1e3);
    pool_ms.push_back(batch.pool_s * 1e3);
    sizes.push_back(static_cast<double>(batch.size));
  }
  const double batches = static_cast<double>(
      stats_after.batcher.batches_formed - stats_before.batcher.batches_formed);
  std::uint64_t rejected = 0;
  for (std::size_t t = 0; t < stats_after.tenants.size(); ++t) {
    rejected += stats_after.tenants[t].rejected - stats_before.tenants[t].rejected;
  }
  report.layers = {
      {"serve.submit_us.p50", quantile(submit_us, 0.5), "us"},
      {"serve.queue_wait_ms.p50", quantile(queue_ms, 0.5), "ms"},
      {"serve.queue_wait_ms.p90", quantile(queue_ms, 0.9), "ms"},
      {"serve.batch_service_ms.p50", quantile(service_ms, 0.5), "ms"},
      {"serve.batch_service_ms.p90", quantile(service_ms, 0.9), "ms"},
      {"serve.demux_us.p50", quantile(demux_us, 0.5), "us"},
      {"serve.batch_size.mean", mean(sizes), "count"},
      {"serve.deadline_batch_frac",
       static_cast<double>(stats_after.batcher.deadline_batches -
                           stats_before.batcher.deadline_batches) /
           batches,
       "fraction"},
      {"serve.rejected", static_cast<double>(rejected), "count"},
      {"serve.backend_failures",
       static_cast<double>(stats_after.backend_failures -
                           stats_before.backend_failures),
       "count"},
      {"serve.interactive_latency_ms.p99", quantile(interactive, 0.99), "ms"},
      {"serve.bulk_latency_ms.p50", quantile(bulk, 0.5), "ms"},
      {"serve.bulk_latency_ms.p99", quantile(bulk, 0.99), "ms"},
      {"loadgen.late_ms.p99", quantile(late_ms, 0.99), "ms"},
  };
  const Metrics pool_layer =
      pool_metrics(util_before, util_after, phase_a_wall, pool_ms.size(), pool_ms);
  report.layers.insert(report.layers.end(), pool_layer.begin(), pool_layer.end());
  return report;
}

}  // namespace condor::bench
