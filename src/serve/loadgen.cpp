#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hls/synthesis.hpp"
#include "hw/performance_model.hpp"

namespace condor::serve {
namespace {

/// Uniform double in (0, 1] — 53 mantissa bits, never exactly 0 so the
/// exponential transform below is total.
double uniform_unit(Rng& rng) {
  const double u =
      static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  return u > 0.0 ? u : 0x1.0p-53;
}

/// Device-time service model: a batch of `images` shards across the pool's
/// instances, so its service time is the slowest instance's batch time over
/// ceil(images / instances) images — the same aggregation LoadedKernel::run
/// reports for a sharded kernel invocation.
Result<double> service_seconds(const sim::AcceleratorSim& accel,
                               std::size_t instances, std::size_t images) {
  instances = std::max<std::size_t>(1, instances);
  CONDOR_ASSIGN_OR_RETURN(
      sim::BatchPoint point,
      sim::simulate_batch(accel, (images + instances - 1) / instances));
  return static_cast<double>(point.total_cycles) / (accel.frequency_mhz * 1e6);
}

bool byte_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

}  // namespace

LatencySummary summarize_latencies(std::vector<double> latencies_ms) {
  LatencySummary summary;
  if (latencies_ms.empty()) {
    return summary;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double sum = 0.0;
  for (const double v : latencies_ms) {
    sum += v;
  }
  const auto rank = [&](double q) {
    const std::size_t index = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies_ms.size())));
    return latencies_ms[std::min(latencies_ms.size() - 1,
                                 index == 0 ? 0 : index - 1)];
  };
  summary.mean_ms = sum / static_cast<double>(latencies_ms.size());
  summary.p50_ms = rank(0.50);
  summary.p99_ms = rank(0.99);
  summary.max_ms = latencies_ms.back();
  return summary;
}

Result<sim::AcceleratorSim> make_service_model(
    const hw::AcceleratorPlan& plan) {
  CONDOR_ASSIGN_OR_RETURN(hls::SynthesisReport report, hls::synthesize(plan));
  CONDOR_ASSIGN_OR_RETURN(
      hw::PerformanceEstimate estimate,
      hw::estimate_performance(plan, report.resources,
                               report.achieved_clock_mhz));
  return sim::build_accelerator_sim(estimate);
}

Result<LoadGenReport> run_open_loop(dataflow::ExecutorPool& pool,
                                    const sim::AcceleratorSim& accel,
                                    const LoadGenOptions& options) {
  if (options.requests == 0) {
    return invalid_input("load generator needs at least one request");
  }
  CONDOR_ASSIGN_OR_RETURN(const double serial_service,
                          service_seconds(accel, pool.instances(), 1));

  LoadGenReport report;
  report.requests = options.requests;
  report.serial_service_seconds = serial_service;
  report.offered_rps = options.rate_rps > 0.0
                           ? options.rate_rps
                           : 2.5 / serial_service;

  // Arrival process + inputs, deterministic from the seed.
  const Shape input_shape = pool.plan().source.net.input_shape().value();
  Rng rng(options.seed);
  std::vector<double> arrivals(options.requests);
  std::vector<Tensor> inputs(options.requests);
  double t = 0.0;
  for (std::size_t i = 0; i < options.requests; ++i) {
    t += -std::log(uniform_unit(rng)) / report.offered_rps;
    arrivals[i] = t;
    Tensor image(input_shape);
    for (float& v : image.data()) {
      v = rng.uniform(-1.0F, 1.0F);
    }
    inputs[i] = std::move(image);
  }

  std::vector<TenantConfig> tenants = options.tenants;
  if (tenants.empty()) {
    TenantConfig tenant;
    tenant.name = "default";
    tenant.queue_capacity = options.requests;  // bench measures latency, not rejects
    tenants.push_back(tenant);
  }

  // ---- dynamic batching: discrete-event simulation in virtual time ------
  BatcherCore core(options.batcher, tenants);
  std::vector<Tensor> admitted_inputs;    // admission order == ticket order
  std::vector<Tensor> demuxed;            // by ticket
  std::vector<double> admitted_arrivals;  // by ticket
  std::vector<double> latencies_ms;
  admitted_inputs.reserve(options.requests);

  double now = 0.0;
  double free_at = 0.0;
  double last_completion = 0.0;
  std::size_t next_arrival = 0;
  std::size_t completed = 0;

  const auto admit_due_arrivals = [&]() {
    while (next_arrival < options.requests &&
           arrivals[next_arrival] <= now) {
      const std::size_t tenant = next_arrival % tenants.size();
      Result<std::uint64_t> ticket =
          core.admit(tenant, inputs[next_arrival], now);
      if (ticket.is_ok()) {
        admitted_inputs.push_back(inputs[next_arrival]);
        admitted_arrivals.push_back(arrivals[next_arrival]);
        demuxed.emplace_back();
      } else {
        ++report.rejected;
      }
      ++next_arrival;
    }
  };

  while (completed + report.rejected < options.requests) {
    admit_due_arrivals();
    if (now >= free_at) {
      if (std::optional<Batch> batch = core.form_batch(now)) {
        std::vector<Tensor> batch_inputs;
        batch_inputs.reserve(batch->requests.size());
        for (const Request& request : batch->requests) {
          batch_inputs.push_back(request.input);
        }
        CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                                pool.run_batch(batch_inputs));
        CONDOR_ASSIGN_OR_RETURN(
            const double batch_service,
            service_seconds(accel, pool.instances(), batch->requests.size()));
        report.max_batch_service_seconds =
            std::max(report.max_batch_service_seconds, batch_service);
        const double completion = now + batch_service;
        free_at = completion;
        last_completion = std::max(last_completion, completion);
        for (std::size_t i = 0; i < batch->requests.size(); ++i) {
          const Request& request = batch->requests[i];
          demuxed[request.id - 1] = std::move(outputs[i]);
          latencies_ms.push_back((completion - request.arrival_seconds) * 1e3);
        }
        completed += batch->requests.size();
        core.complete(*batch);
        continue;
      }
    }
    // Advance the virtual clock to the next event: the next arrival, the
    // moment the backend frees up (a batch is already due), or the moment
    // the oldest queued request's deadline makes a batch due.
    double next = std::numeric_limits<double>::infinity();
    if (next_arrival < options.requests) {
      next = std::min(next, arrivals[next_arrival]);
    }
    if (core.queued() > 0) {
      if (core.batch_due(now)) {
        next = std::min(next, free_at);
      } else if (const std::optional<double> deadline = core.next_deadline()) {
        next = std::min(next, *deadline);
      }
    }
    if (!std::isfinite(next) || next <= now) {
      return internal_error(strings::format(
          "load generator stalled at t=%.6f (queued %zu, completed %zu)", now,
          core.queued(), completed));
    }
    now = next;
  }

  report.completed = completed;
  report.makespan_seconds = last_completion;
  report.images_per_second =
      last_completion > 0.0 ? static_cast<double>(completed) / last_completion
                            : 0.0;
  report.latency = summarize_latencies(latencies_ms);
  report.batches = core.counters().batches_formed;
  report.mean_batch =
      report.batches > 0 ? static_cast<double>(core.counters().requests_batched) /
                               static_cast<double>(report.batches)
                         : 0.0;
  report.largest_batch = core.counters().largest_batch;

  // ---- serial per-request baseline over the same arrivals ---------------
  {
    std::vector<double> serial_latencies_ms;
    serial_latencies_ms.reserve(options.requests);
    double serial_free = 0.0;
    for (std::size_t i = 0; i < options.requests; ++i) {
      const double start = std::max(arrivals[i], serial_free);
      serial_free = start + serial_service;
      serial_latencies_ms.push_back((serial_free - arrivals[i]) * 1e3);
    }
    report.serial_images_per_second =
        serial_free > 0.0 ? static_cast<double>(options.requests) / serial_free
                          : 0.0;
    report.serial_latency = summarize_latencies(std::move(serial_latencies_ms));
  }
  report.speedup = report.serial_images_per_second > 0.0
                       ? report.images_per_second / report.serial_images_per_second
                       : 0.0;

  // ---- demux bit-exactness vs one direct run_batch ----------------------
  CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> direct,
                          pool.run_batch(admitted_inputs));
  report.bitexact_vs_direct = direct.size() == demuxed.size();
  for (std::size_t i = 0; report.bitexact_vs_direct && i < direct.size(); ++i) {
    report.bitexact_vs_direct = byte_equal(direct[i], demuxed[i]);
  }

  report.p99_bound_ms = options.batcher.max_delay_seconds * 1e3 +
                        report.max_batch_service_seconds * 1e3;
  report.p99_within_bound = report.latency.p99_ms <= report.p99_bound_ms;
  return report;
}

}  // namespace condor::serve
