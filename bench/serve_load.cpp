// Open-loop serving benchmark: dynamic batching vs per-request dispatch.
//
// Drives Poisson arrivals (2.5x the serial per-request capacity) of
// single-image LeNet requests into the serving layer's BatcherCore over a
// 4-instance ExecutorPool, at float32 and fixed8. The batcher coalesces
// requests under a 25 ms deadline and each batch shards across the pool
// through the chunk-stealing runtime — which is where the speedup lives: a
// lone request can never occupy more than one instance, a batch fills all
// of them. Latency is measured in the device-time domain (virtual clock
// over the pipeline's batch timing, like multi_slot_scaling), so the reported
// p50/p99/img/s are deterministic for the seed and independent of the
// simulation host. Every dispatched batch also executes functionally and
// the demux is checked byte-for-byte against a direct run_batch.
//
// Writes the report to argv[1] (default BENCH_serve_load.json) and exits
// nonzero if batching fails to reach 2x serial throughput, the p99 exceeds
// max_delay + one batch service time, or the demux is not bit-exact.
#include <cstdio>
#include <fstream>

#include "common/logging.hpp"
#include "dataflow/executor_pool.hpp"
#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "json/json.hpp"
#include "nn/models.hpp"
#include "nn/numeric.hpp"
#include "nn/weights.hpp"
#include "serve/loadgen.hpp"

namespace {

using namespace condor;

constexpr std::size_t kInstances = 4;
constexpr std::size_t kRequests = 512;

serve::LoadGenOptions make_options() {
  serve::LoadGenOptions options;
  options.requests = kRequests;
  options.batcher.max_batch = 32;
  options.batcher.preferred_batch = 8;
  options.batcher.max_delay_seconds = 0.025;
  return options;
}

json::Value summary_json(const serve::LatencySummary& summary) {
  json::Object object;
  object.set("mean_ms", summary.mean_ms);
  object.set("p50_ms", summary.p50_ms);
  object.set("p99_ms", summary.p99_ms);
  object.set("max_ms", summary.max_ms);
  return object;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::kError);
  const char* out_path = argc > 1 ? argv[1] : "BENCH_serve_load.json";

  std::printf("== Open-loop serving: dynamic batching vs per-request "
              "dispatch ==\n");
  std::printf("LeNet, %zu instances, %zu requests, max_batch 32, "
              "max_delay 25 ms\n\n",
              kInstances, kRequests);

  const nn::Network model = nn::make_lenet();
  auto weights = nn::initialize_weights(model, 7);
  if (!weights.is_ok()) {
    std::fprintf(stderr, "%s\n", weights.status().to_string().c_str());
    return 1;
  }

  json::Array results;
  bool all_criteria_met = true;
  for (const nn::DataType data_type :
       {nn::DataType::kFloat32, nn::DataType::kFixed8}) {
    hw::HwNetwork hw_net = hw::with_default_annotations(model);
    hw_net.hw.data_type = data_type;
    auto plan = hw::plan_accelerator(hw_net);
    if (!plan.is_ok()) {
      std::fprintf(stderr, "%s\n", plan.status().to_string().c_str());
      return 1;
    }
    auto pool = dataflow::ExecutorPool::create(plan.value(), weights.value(),
                                               kInstances);
    if (!pool.is_ok()) {
      std::fprintf(stderr, "%s\n", pool.status().to_string().c_str());
      return 1;
    }
    auto accel = serve::make_service_model(pool.value().plan());
    if (!accel.is_ok()) {
      std::fprintf(stderr, "%s\n", accel.status().to_string().c_str());
      return 1;
    }
    auto report =
        serve::run_open_loop(pool.value(), accel.value(), make_options());
    if (!report.is_ok()) {
      std::fprintf(stderr, "%s\n", report.status().to_string().c_str());
      return 1;
    }
    const serve::LoadGenReport& r = report.value();
    const bool met =
        r.speedup >= 2.0 && r.p99_within_bound && r.bitexact_vs_direct;
    all_criteria_met = all_criteria_met && met;

    const std::string type_name(nn::to_string(data_type));
    std::printf("%s: offered %.1f req/s\n", type_name.c_str(), r.offered_rps);
    std::printf("  serial  %8.1f img/s   p50 %7.2f ms   p99 %7.2f ms\n",
                r.serial_images_per_second, r.serial_latency.p50_ms,
                r.serial_latency.p99_ms);
    std::printf("  batched %8.1f img/s   p50 %7.2f ms   p99 %7.2f ms\n",
                r.images_per_second, r.latency.p50_ms, r.latency.p99_ms);
    std::printf("  speedup %.2fx, %zu batches (mean %.1f, largest %zu), "
                "p99 bound %.2f ms, demux %s  [%s]\n\n",
                r.speedup, r.batches, r.mean_batch, r.largest_batch,
                r.p99_bound_ms, r.bitexact_vs_direct ? "bit-exact" : "MISMATCH",
                met ? "ok" : "CRITERIA NOT MET");

    json::Object entry;
    entry.set("data_type", type_name);
    entry.set("offered_rps", r.offered_rps);
    entry.set("requests", r.requests);
    entry.set("completed", r.completed);
    entry.set("rejected", r.rejected);
    entry.set("serial_images_per_second", r.serial_images_per_second);
    entry.set("serial_latency", summary_json(r.serial_latency));
    entry.set("batched_images_per_second", r.images_per_second);
    entry.set("batched_latency", summary_json(r.latency));
    entry.set("batches", r.batches);
    entry.set("mean_batch", r.mean_batch);
    entry.set("largest_batch", r.largest_batch);
    entry.set("max_batch_service_ms", r.max_batch_service_seconds * 1e3);
    entry.set("speedup", r.speedup);
    entry.set("p99_bound_ms", r.p99_bound_ms);
    entry.set("p99_within_bound", r.p99_within_bound);
    entry.set("bitexact_vs_direct", r.bitexact_vs_direct);
    results.push_back(std::move(entry));
  }

  json::Object doc;
  doc.set("bench", "serve_load");
  doc.set("model", "lenet");
  {
    const serve::LoadGenOptions options = make_options();
    json::Object config;
    config.set("instances", kInstances);
    config.set("requests", options.requests);
    config.set("seed", options.seed);
    config.set("max_batch", options.batcher.max_batch);
    config.set("preferred_batch", options.batcher.preferred_batch);
    config.set("max_delay_ms", options.batcher.max_delay_seconds * 1e3);
    config.set("rate", "auto (2.5x serial capacity)");
    doc.set("config", std::move(config));
  }
  doc.set("results", std::move(results));

  std::ofstream out(out_path);
  out << json::dump(json::Value(std::move(doc))) << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "failed to write %s\n", out_path);
    return 1;
  }
  std::printf("report written to %s\n", out_path);
  return all_criteria_met ? 0 : 1;
}
