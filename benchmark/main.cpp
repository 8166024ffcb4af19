// condor_bench: host-time benchmark of the Condor stack.
//
//   condor_bench --workload W --seed S --seconds N --spec BENCHMARK.json
//                [--trace FILE] [--out FILE]
//
// Runs one workload in this process and prints `workload metric value unit`
// lines, then, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run reports the
// end-to-end metrics BENCHMARK.json lists; a run with --trace reports its
// per-layer metrics and writes every span to FILE as Chrome trace-event
// JSON. --out also writes the result with its context (host, CPU, SIMD
// level, thread budget, Condor's build type and flags) to a file.
//
// Exits 1 when any output differs from its oracle or a warm run moved
// weight bytes, and 2 on bad arguments or a thread budget above nproc.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/byte_io.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "json/json.hpp"
#include "nn/kernels_simd.hpp"

namespace {

using namespace condor;
using namespace condor::bench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string spec;
  std::string trace_path;
  std::string out_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--out") {
      args.out_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.spec.empty() &&
         args.seconds > 0.0;
}

/// Metric names of one BENCHMARK.json list ("end_to_end" or "per_layer").
Result<std::vector<std::string>> spec_names(const json::Value& spec,
                                            std::string_view list) {
  const json::Value* entries =
      spec.is_object() ? spec.object().find(list) : nullptr;
  if (entries == nullptr || !entries->is_array()) {
    return invalid_input("BENCHMARK.json has no '" + std::string(list) + "' list");
  }
  std::vector<std::string> names;
  for (const json::Value& entry : entries->array()) {
    const json::Value* name =
        entry.is_object() ? entry.object().find("name") : nullptr;
    if (name == nullptr || !name->is_string()) {
      return invalid_input("BENCHMARK.json metric without a name");
    }
    names.push_back(name->string());
  }
  return names;
}

/// Orders `measured` as `names` lists them; every listed metric must be
/// measured exactly once and nothing else may be.
Result<Metrics> select(const Metrics& measured,
                       const std::vector<std::string>& names) {
  std::map<std::string, Metric> by_name;
  for (const Metric& metric : measured) {
    if (!by_name.emplace(metric.name, metric).second) {
      return internal_error("metric measured twice: " + metric.name);
    }
  }
  Metrics selected;
  for (const std::string& name : names) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      return internal_error("metric not measured: " + name);
    }
    if (!std::isfinite(it->second.value)) {
      return internal_error("metric not finite: " + name);
    }
    selected.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    return internal_error("metric not in BENCHMARK.json: " +
                          by_name.begin()->first);
  }
  return selected;
}

/// Adds the metrics of `extra` whose names `into` does not hold yet.
void add_missing(Metrics& into, const Metrics& extra) {
  for (const Metric& metric : extra) {
    const bool present = std::any_of(into.begin(), into.end(), [&](const Metric& m) {
      return m.name == metric.name;
    });
    if (!present) {
      into.push_back(metric);
    }
  }
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

json::Value context(const Args& args) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  json::Object ctx;
  ctx.set("host", std::string(host));
  ctx.set("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  ctx.set("cpu_model", cpu_model());
  ctx.set("cpu_features", nn::kernels::cpu_feature_string());
  ctx.set("simd_level",
          std::string(nn::kernels::to_string(nn::kernels::active_simd_level())));
  ctx.set("thread_budget", thread_budget());
  ctx.set("condor_build_type", CONDOR_BENCH_BUILD_TYPE);
  ctx.set("condor_cxx_flags", CONDOR_BENCH_CXX_FLAGS);
  ctx.set("seed", static_cast<std::int64_t>(args.seed));
  ctx.set("seconds", args.seconds);
  ctx.set("traced", !args.trace_path.empty());
  return ctx;
}

json::Object metrics_json(const Metrics& metrics) {
  json::Object object;
  for (const Metric& metric : metrics) {
    json::Object entry;
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    object.set(metric.name, std::move(entry));
  }
  return object;
}

int fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "condor_bench: %s: %s\n", what.c_str(),
               status.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: condor_bench --workload W --seed S --seconds N "
                 "--spec BENCHMARK.json [--trace FILE] [--out FILE]\n");
    return 2;
  }
  const std::size_t nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && thread_budget() > nproc) {
    std::fprintf(stderr, "condor_bench: thread budget %zu exceeds nproc %zu\n",
                 thread_budget(), nproc);
    return 2;
  }
  log::set_level(log::Level::kError);

  std::string spec_text;
  {
    std::ifstream in(args.spec);
    spec_text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const Result<json::Value> spec = json::parse(spec_text);
  if (!spec.is_ok()) {
    return fail("reading " + args.spec, spec.status());
  }
  const bool traced = !args.trace_path.empty();
  const Result<std::vector<std::string>> names =
      spec_names(spec.value(), traced ? "per_layer" : "end_to_end");
  if (!names.is_ok()) {
    return fail("reading " + args.spec, names.status());
  }

  const std::map<std::string, Result<Report> (*)(const RunConfig&, Tally&)>
      workloads = {{"serve-mixed", run_serve_mixed},
                   {"offline-fixed8", run_offline_fixed8},
                   {"stream-b1", run_stream_b1},
                   {"deploy-cold", run_deploy_cold}};
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "condor_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tally tally;
  Trace trace;
  const RunConfig config{args.seed, args.seconds, traced ? &trace : nullptr};
  Result<Report> report = workload->second(config, tally);
  if (!report.is_ok()) {
    return fail(args.workload, report.status());
  }
  Metrics measured;
  Metrics info = report.value().info;
  if (!traced) {
    measured = report.value().end_to_end;
  } else {
    // A traced run of any workload must report every per-layer metric
    // BENCHMARK.json lists, so each comes from this workload's own spans
    // where it crosses the layer, otherwise from a short run of the
    // workload that does: serving and pool metrics from serve-mixed
    // traffic, flow step metrics from deploy rounds. The remaining probes
    // do not depend on the workload.
    measured = report.value().layers;
    const RunConfig serve_probe{args.seed, 3.0, &trace};
    const RunConfig deploy_probe{args.seed, 1.5, &trace};
    for (const auto& [name, probe] :
         {std::pair{"serve-mixed", serve_probe},
          std::pair{"deploy-cold", deploy_probe}}) {
      if (args.workload == name) {
        continue;
      }
      Result<Report> extra = workloads.at(name)(probe, tally);
      if (!extra.is_ok()) {
        return fail(std::string(name) + " probe", extra.status());
      }
      add_missing(measured, extra.value().layers);
    }
    Result<Metrics> probes = run_layer_probes(trace, tally);
    if (!probes.is_ok()) {
      return fail("layer probes", probes.status());
    }
    add_missing(measured, probes.value());
    // The end-to-end values under tracing; run.sh subtracts the untraced
    // run's to report the tracing overhead.
    for (const Metric& metric : report.value().end_to_end) {
      info.push_back({"traced." + metric.name, metric.value, metric.unit});
    }
    if (const Status written = trace.write_chrome_json(args.trace_path);
        !written.is_ok()) {
      return fail("writing " + args.trace_path, written);
    }
  }
  const Result<Metrics> metrics = select(measured, names.value());
  if (!metrics.is_ok()) {
    return fail(args.workload, metrics.status());
  }

  const bool correct = tally.mismatched.load() == 0 && tally.gate_failures.load() == 0;
  for (const Metric& metric : metrics.value()) {
    std::printf("%s %s %.6g %s\n", args.workload.c_str(), metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  for (const Metric& metric : info) {
    std::printf("%s (%s %.6g %s)\n", args.workload.c_str(), metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  json::Object result;
  result.set("correct", correct);
  result.set("attempted", static_cast<std::int64_t>(tally.attempted.load()));
  result.set("failed", static_cast<std::int64_t>(tally.failed.load()));
  result.set("metrics", metrics_json(metrics.value()));
  if (!args.out_path.empty()) {
    json::Object out;
    out.set("workload", args.workload);
    out.set("context", context(args));
    out.set("result", result);
    out.set("info", metrics_json(info));
    if (const Status written = write_text_file(args.out_path, json::dump(out));
        !written.is_ok()) {
      return fail("writing " + args.out_path, written);
    }
  }
  std::printf("%s\n", json::dump(result, /*pretty=*/false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
